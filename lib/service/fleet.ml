(** Enclave fleet: N instances of the sharded KV service, each on its
    own simulated machine (own {!Sb_vmem.Vmem}/EPC/cache, drawn from and
    retired to the machine pools), behind one front load balancer.

    The fleet is a discrete-event simulation at the host level. Each
    instance serves requests one at a time per worker; a request's
    service cycles are whatever its handler charges on that instance's
    machine, so the per-scheme EPC behaviour of a shard is exactly the
    single-machine model's. The balancer walks the open-loop arrival
    schedule in time order, routing each request by policy:

    - round-robin over the alive instances,
    - least-loaded by (queue depth + busy workers) at arrival time,
    - consistent-hash sharding of the YCSB key space ({!Ring}).

    Connection affinity pins a client id to its first-routed instance
    for the non-hash policies. A full per-instance accept queue sheds at
    the balancer, like {!Service}.

    Failure/restart: a kill at simulated time K loses the requests in
    flight on that instance, fails its queued requests over through the
    balancer, and relaunches a fresh enclave — teardown + re-attestation
    charged at the {!Sb_scone.Scone} lifecycle costs, plus the measured
    cycles of re-preloading its shard — before the instance rejoins the
    alive set. The ring never changes membership on failure: keys walk
    clockwise past the dead instance and snap back on restart.

    Determinism: every quantity is simulated (seeded arrival schedule,
    seeded op stream, measured machine cycles), kills are configured
    times, and ties break on instance index — so a run is a pure
    function of its config, bit-identical across the naive/fast/trace
    engines and for any host parallelism around it. *)

module Config = Sb_machine.Config
module Rng = Sb_machine.Rng
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Scone = Sb_scone.Scone
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Wctx = Sb_workloads.Wctx
module Memcached_sim = Sb_apps.Memcached_sim
module Histogram = Sb_telemetry.Metrics.Histogram
module Tsv = Sb_telemetry.Tsv
open Sb_protection.Types

(* ---------- balancer policies ---------- *)

type policy = Round_robin | Least_loaded | Hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Hash -> "hash"

let policy_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "hash" | "consistent-hash" -> Some Hash
  | _ -> None

let policy_names = [ "round-robin"; "least-loaded"; "hash" ]

(* ---------- consistent-hash ring ---------- *)

module Ring = struct
  (** Consistent hashing with [vnodes] virtual points per instance on a
      splitmix-hashed ring. Key→owner is a pure function of (key,
      instance count), stable across runs and processes; adding or
      removing one instance remaps only the arc segments that gain or
      lose points — ~1/n of the key space, never a reshuffle. *)

  let vnodes = 64

  (* splitmix64 finalizer: deterministic, seedless, well-mixed *)
  let hash x =
    let open Int64 in
    let z = mul (add (of_int x) 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 30)) 0x94D049BB133111EBL in
    Int64.to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

  (* points and keys hash from disjoint id spaces *)
  let point_hash inst v = hash ((((inst * vnodes) + v) * 2) + 0)
  let key_hash k = hash ((k * 2) + 1)

  type t = {
    hashes : int array;  (* sorted ring positions *)
    owners : int array;  (* owning instance per position *)
  }

  let make n =
    if n < 1 then invalid_arg "Ring.make: need at least one instance";
    let pts =
      Array.init (n * vnodes) (fun i ->
          (point_hash (i / vnodes) (i mod vnodes), i / vnodes))
    in
    Array.sort compare pts;
    { hashes = Array.map fst pts; owners = Array.map snd pts }

  (* index of the first point at or clockwise-after [h], wrapping *)
  let position t h =
    let n = Array.length t.hashes in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.hashes.(mid) < h then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo

  let owner t key = t.owners.(position t (key_hash key))

  (** First alive instance clockwise from the key's position — the
      failover route while an owner is down. [None] if nothing is up. *)
  let owner_alive t ~alive key =
    let n = Array.length t.hashes in
    let start = position t (key_hash key) in
    let rec go i steps =
      if steps >= n then None
      else
        let o = t.owners.(i) in
        if alive o then Some o else go ((i + 1) mod n) (steps + 1)
    in
    go start 0
end

(* ---------- configuration ---------- *)

type config = {
  instances : int;      (** fleet size, >= 1 *)
  workers : int;        (** simulated server threads per instance *)
  queue_cap : int;      (** per-instance accept-queue bound *)
  requests : int;       (** offered load: total arrivals *)
  rate_rps : float;     (** offered rate, requests per simulated second *)
  process : Loadgen.process;
  seed : int;
  scheme : string;
  env : Config.env;
  policy : policy;
  affinity : bool;      (** sticky client→instance routing (non-hash) *)
  clients : int;        (** distinct client connections for affinity *)
  workload : Ycsb.workload;
  dist : Ycsb.dist option;  (** key-distribution override *)
  records : int;        (** preloaded KV records (whole key space) *)
  value_bytes : int;
  kills : (int * int) list;
      (** (instance, simulated time) failure injections; each kill loses
          the in-flight requests, fails queued ones over and relaunches
          the instance after teardown + attestation + shard re-preload *)
}

let default =
  {
    instances = 2;
    workers = 2;
    queue_cap = 64;
    requests = 2000;
    rate_rps = 50_000.;
    process = Loadgen.Poisson;
    seed = 1;
    scheme = "sgxbounds";
    env = Config.Inside_enclave;
    policy = Hash;
    affinity = false;
    clients = 64;
    workload = Ycsb.A;
    dist = None;
    records = 4096;
    value_bytes = 96;
    kills = [];
  }

(* ---------- results ---------- *)

type inst_stats = {
  i_idx : int;
  i_completed : int;
  i_lost : int;
  i_restarts : int;
  i_max_queue : int;
  i_latency : Histogram.t;
  i_queue_wait : Histogram.t;
  i_spans : Spans.log option;
}

type stats = {
  offered : int;
  completed : int;
  dropped : int;        (** shed at the balancer (full queue / fleet down) *)
  failed_over : int;    (** requeued to another instance after a kill *)
  lost : int;           (** in flight on an instance when it died *)
  restarts : int;
  elapsed : int;        (** cycles from t=0 to the last completion *)
  records : int;        (** final record count after the stream's inserts *)
  latency : Histogram.t;      (** {!Latency.merge} over the instances *)
  queue_wait : Histogram.t;
  per_instance : inst_stats array;
}

let throughput_rps st =
  if st.elapsed <= 0 then 0.
  else float_of_int st.completed /. (float_of_int st.elapsed /. Loadgen.cycles_per_sec)

let drop_ratio st =
  if st.offered = 0 then 0. else float_of_int st.dropped /. float_of_int st.offered

let summary st = Latency.summary st.latency

(** One line capturing every merged and per-instance counter plus the
    exact histogram moments — what the determinism tests pin across
    engines and [--jobs]. *)
let fingerprint st =
  let s = summary st in
  Printf.sprintf
    "off=%d done=%d drop=%d fo=%d lost=%d rs=%d el=%d rec=%d \
     p50=%d p99=%d max=%d sum=%d qsum=%d inst=[%s]"
    st.offered st.completed st.dropped st.failed_over st.lost st.restarts
    st.elapsed st.records s.Latency.p50 s.Latency.p99 s.Latency.max
    (Histogram.sum st.latency) (Histogram.sum st.queue_wait)
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun i ->
                Printf.sprintf "%d/%d/%d/%d" i.i_completed i.i_lost i.i_restarts
                  i.i_max_queue)
             st.per_instance)))

(* ---------- per-instance server ---------- *)

type inst = {
  idx : int;
  mutable ms : Memsys.t;
  mutable serve : worker:int -> Ycsb.op -> unit;
  queue : (int * int) Queue.t;  (* (op id, enqueue time) *)
  free_at : int array;          (* per worker: busy until this clock *)
  mutable down_until : int;
  mutable pending_kills : int list;  (* ascending times *)
  mutable completed : int;
  mutable lost : int;
  mutable restarts : int;
  mutable max_queue : int;
  latency : Histogram.t;
  queue_wait : Histogram.t;
  spans : Spans.log option;
}

let next_kill inst = match inst.pending_kills with [] -> max_int | k :: _ -> k

let alive inst ~t = inst.down_until <= t

let load inst ~t =
  let busy = ref 0 in
  Array.iter (fun f -> if f > t then incr busy) inst.free_at;
  Queue.length inst.queue + !busy

(* The shard an instance preloads: under hash routing, exactly the keys
   it owns on the ring; under the replicating policies, every record. *)
let shard_keys (cfg : config) ring idx =
  let keys = ref [] in
  for k = cfg.records - 1 downto 0 do
    if cfg.policy <> Hash || Ring.owner ring k = idx then keys := k :: !keys
  done;
  !keys

(* Deterministic per-(instance, incarnation) seed. *)
let inst_seed (cfg : config) idx incarnation =
  (cfg.seed * 1_000_003) + (idx * 7919) + incarnation

(** Build one server incarnation: fresh machine, scheme, KV store, the
    shard preloaded, one connection and I/O buffer per worker. The
    machine's thread-0 clock after this is the setup cost in cycles. *)
let build (cfg : config) ring idx ~seed =
  let ms = Memsys.create (Config.default ~env:cfg.env ()) in
  let s = Harness.maker cfg.scheme ms in
  let ctx = Wctx.make ~seed s in
  let t = Memcached_sim.create ~value_bytes:cfg.value_bytes ctx in
  List.iter (fun k -> Memcached_sim.set_kv t k k) (shard_keys cfg ring idx);
  let conns = Array.init cfg.workers (fun _ -> Memcached_sim.open_conn t) in
  let bufs = Array.init cfg.workers (fun _ -> s.Scheme.malloc 1024) in
  let serve ~worker op =
    let conn = conns.(worker) and buf = bufs.(worker) in
    match op with
    | Ycsb.Read k -> Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true
    | Ycsb.Update k | Ycsb.Insert k ->
      Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:false
    | Ycsb.Rmw k ->
      (* one request envelope; the write-back is server-side *)
      Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true;
      Memcached_sim.set_kv t k k
    | Ycsb.Scan (k, len) ->
      Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true;
      for j = 1 to len - 1 do
        ignore (Memcached_sim.get t (k + j))
      done
  in
  (ms, serve)

(* ---------- the discrete-event drive loop ---------- *)

(** Serve everything this instance can start at or before [t]: pop the
    queue head whenever the earliest-free worker can begin it before the
    horizon (and strictly before the instance's next scheduled kill).
    Each request runs to completion on the instance's machine — its
    measured cycles set the worker's next free time — and is classified
    immediately: completed if it finishes before the kill, lost if the
    kill lands mid-execution. *)
let advance_inst inst ops arrivals ~t ~on_fin =
  let horizon = min t (next_kill inst - 1) in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt inst.queue with
    | None -> continue := false
    | Some (id, enq) ->
      let w = ref 0 in
      for i = 1 to Array.length inst.free_at - 1 do
        if inst.free_at.(i) < inst.free_at.(!w) then w := i
      done;
      let w = !w in
      let start = max inst.free_at.(w) enq in
      if start > horizon then continue := false
      else begin
        ignore (Queue.pop inst.queue);
        Memsys.set_thread inst.ms w;
        Memsys.set_clock inst.ms w start;
        (match inst.spans with
         | Some log -> Spans.begin_exec log inst.ms ~worker:w
         | None -> ());
        inst.serve ~worker:w ops.(id);
        let fin = Memsys.get_clock inst.ms w in
        inst.free_at.(w) <- fin;
        if fin <= next_kill inst then begin
          inst.completed <- inst.completed + 1;
          Histogram.observe inst.latency (fin - arrivals.(id));
          Histogram.observe inst.queue_wait (start - arrivals.(id));
          (match inst.spans with
           | Some log ->
             Spans.finish log inst.ms ~id ~worker:w ~arrival:arrivals.(id) ~dequeue:start
               ~fin
           | None -> ());
          on_fin fin
        end
        else begin
          (* the enclave dies with this request on the worker *)
          inst.lost <- inst.lost + 1;
          match inst.spans with
          | Some log -> Spans.abort log inst.ms ~worker:w
          | None -> ()
        end
      end
  done

(** [run ?spans cfg] drives the whole schedule and returns the merged
    stats. With [spans], each instance keeps its own slowest-K exemplar
    reservoir (observation only — stats are unchanged). *)
let run ?spans (cfg : config) =
  if cfg.instances < 1 then invalid_arg "Fleet.run: instances must be >= 1";
  if cfg.workers < 1 then invalid_arg "Fleet.run: workers must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Fleet.run: queue_cap must be >= 1";
  if cfg.clients < 1 then invalid_arg "Fleet.run: clients must be >= 1";
  if cfg.records < 1 then invalid_arg "Fleet.run: records must be >= 1";
  List.iter
    (fun (i, at) ->
       if i < 0 || i >= cfg.instances then
         invalid_arg "Fleet.run: kill names an instance out of range";
       if at < 0 then invalid_arg "Fleet.run: kill time must be >= 0")
    cfg.kills;
  let rng = Rng.create cfg.seed in
  let arrivals =
    Loadgen.arrivals ~rng ~process:cfg.process ~rate_rps:cfg.rate_rps
      ~n:cfg.requests
  in
  let op_seed = Rng.split rng in
  let ops, final_records =
    Ycsb.generate ?dist:cfg.dist ~seed:op_seed ~workload:cfg.workload
      ~records:cfg.records ~n:cfg.requests ()
  in
  let ring = Ring.make cfg.instances in
  (* every machine ever built, retired when the run ends (or crashes) *)
  let machines = ref [] in
  let retire_all () = List.iter Memsys.retire !machines in
  let kills = List.sort compare (List.map (fun (i, at) -> (at, i)) cfg.kills) in
  let outcome =
    match
      let insts =
        Array.init cfg.instances (fun idx ->
            let ms, serve = build cfg ring idx ~seed:(inst_seed cfg idx 0) in
            machines := ms :: !machines;
            {
              idx;
              ms;
              serve;
              queue = Queue.create ();
              free_at = Array.make cfg.workers 0;
              down_until = 0;
              pending_kills =
                List.filter_map
                  (fun (at, i) -> if i = idx then Some at else None)
                  kills;
              completed = 0;
              lost = 0;
              restarts = 0;
              max_queue = 0;
              latency = Histogram.create (Printf.sprintf "fleet.%d.latency" idx);
              queue_wait =
                Histogram.create (Printf.sprintf "fleet.%d.queue_wait" idx);
              spans =
                Option.map (fun cap -> Spans.create ~cap ~workers:cfg.workers ())
                  spans;
            })
      in
      let dropped = ref 0 and failed_over = ref 0 and last_fin = ref 0 in
      let rr = ref 0 in
      let sticky = Array.make cfg.clients (-1) in
      let on_fin fin = if fin > !last_fin then last_fin := fin in
      let advance_all ~t =
        Array.iter (fun inst -> advance_inst inst ops arrivals ~t ~on_fin) insts
      in
      let rr_next ~t =
        let n = cfg.instances in
        let rec go tries =
          if tries >= n then None
          else begin
            let i = !rr mod n in
            incr rr;
            if alive insts.(i) ~t then Some i else go (tries + 1)
          end
        in
        go 0
      in
      let ll_pick ~t =
        let best = ref None in
        Array.iter
          (fun inst ->
             if alive inst ~t then begin
               let l = load inst ~t in
               match !best with
               | Some (_, bl) when bl <= l -> ()
               | _ -> best := Some (inst.idx, l)
             end)
          insts;
        Option.map fst !best
      in
      (* Route one request at time [t]: pick an instance by policy among
         the alive ones, shed if its queue is full (or nothing is up). *)
      let route ~t ~id ~requeue =
        let choice =
          match cfg.policy with
          | Hash ->
            Ring.owner_alive ring ~alive:(fun i -> alive insts.(i) ~t)
              (Ycsb.op_key ops.(id))
          | Round_robin | Least_loaded ->
            let client = id mod cfg.clients in
            if
              cfg.affinity && sticky.(client) >= 0
              && alive insts.(sticky.(client)) ~t
            then Some sticky.(client)
            else begin
              let c =
                match cfg.policy with
                | Round_robin -> rr_next ~t
                | Least_loaded -> ll_pick ~t
                | Hash -> assert false
              in
              (match c with
               | Some i when cfg.affinity -> sticky.(client) <- i
               | _ -> ());
              c
            end
        in
        match choice with
        | None -> incr dropped
        | Some i ->
          let inst = insts.(i) in
          if Queue.length inst.queue >= cfg.queue_cap then incr dropped
          else begin
            Queue.add (id, t) inst.queue;
            if Queue.length inst.queue > inst.max_queue then
              inst.max_queue <- Queue.length inst.queue;
            if requeue then incr failed_over
          end
      in
      let do_kill inst ~at =
        inst.pending_kills <- List.tl inst.pending_kills;
        let queued = List.of_seq (Queue.to_seq inst.queue) in
        Queue.clear inst.queue;
        inst.restarts <- inst.restarts + 1;
        let old = inst.ms in
        Memsys.retire old;
        machines := List.filter (fun m -> m != old) !machines;
        (* relaunch: fresh enclave + shard re-preload, then the SCONE
           lifecycle bill — EPC teardown and the re-attestation round
           trip — before the instance rejoins the alive set *)
        let ms, serve =
          build cfg ring inst.idx ~seed:(inst_seed cfg inst.idx inst.restarts)
        in
        machines := ms :: !machines;
        Memsys.charge_alu ms (Scone.enclave_teardown + Scone.enclave_attest);
        let ready = at + Memsys.get_clock ms 0 in
        inst.ms <- ms;
        inst.serve <- serve;
        Array.fill inst.free_at 0 cfg.workers ready;
        inst.down_until <- ready;
        (* the queued requests fail over through the balancer *)
        List.iter (fun (id, _) -> route ~t:at ~id ~requeue:true) queued
      in
      let pending = ref kills in
      let process_kills_until t =
        let continue = ref true in
        while !continue do
          match !pending with
          | (at, i) :: rest when at <= t ->
            pending := rest;
            advance_all ~t:at;
            do_kill insts.(i) ~at
          | _ -> continue := false
        done
      in
      for id = 0 to cfg.requests - 1 do
        let t = arrivals.(id) in
        process_kills_until t;
        advance_all ~t;
        route ~t ~id ~requeue:false
      done;
      process_kills_until max_int;
      advance_all ~t:max_int;
      let per_instance =
        Array.map
          (fun inst ->
             {
               i_idx = inst.idx;
               i_completed = inst.completed;
               i_lost = inst.lost;
               i_restarts = inst.restarts;
               i_max_queue = inst.max_queue;
               i_latency = inst.latency;
               i_queue_wait = inst.queue_wait;
               i_spans = inst.spans;
             })
          insts
      in
      let hs f = Array.to_list (Array.map f per_instance) in
      {
        offered = cfg.requests;
        completed = Array.fold_left (fun a i -> a + i.i_completed) 0 per_instance;
        dropped = !dropped;
        failed_over = !failed_over;
        lost = Array.fold_left (fun a i -> a + i.i_lost) 0 per_instance;
        restarts = Array.fold_left (fun a i -> a + i.i_restarts) 0 per_instance;
        elapsed = !last_fin;
        records = final_records;
        latency = Latency.merge "fleet.latency" (hs (fun i -> i.i_latency));
        queue_wait = Latency.merge "fleet.queue_wait" (hs (fun i -> i.i_queue_wait));
        per_instance;
      }
    with
    | st -> Ok st
    | exception App_crash msg -> Error msg
    | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
    | exception Violation v -> Error (Fmt.str "%a" pp_violation v)
  in
  retire_all ();
  outcome

(** Closed-loop fleet capacity: the whole schedule offered at t=0 with a
    queue deep enough to hold it — completions per second at full
    pressure, the number the capacity-vs-shards table plots. *)
let capacity cfg =
  let cfg =
    {
      cfg with
      rate_rps = 1e15;
      process = Loadgen.Fixed;
      queue_cap = max cfg.queue_cap cfg.requests;
    }
  in
  match run cfg with Ok st -> Some (throughput_rps st) | Error _ -> None

(** Run independent fleet configs across domains; results in order.
    Each config is self-contained, so any [--jobs] gives identical
    results. *)
let sweep ?jobs cfgs = Parallel_runner.map_list ?jobs run cfgs

(* ---------- fleetcap TSV schema ---------- *)

(** [results/fleet_capacity.tsv]: one row per (scheme, shard count). *)
let capacity_schema =
  let count c = (c, Tsv.Nat 0) in
  Tsv.schema "fleet_capacity"
    [ ("scheme", Tsv.Text); ("shards", Tsv.Nat 1); ("policy", Tsv.One_of policy_names);
      ("ycsb", Tsv.One_of (List.map Ycsb.name Ycsb.all)); count "records";
      ("capacity_kops", Tsv.Num (0., infinity));
      ("offered_rps", Tsv.Num (neg_infinity, infinity)); count "completed";
      count "dropped"; count "failed_over"; count "lost"; count "restarts";
      count "p50_cycles"; count "p99_cycles"; ("status", Tsv.Status) ]

(** The cells of one [results/fleet_capacity.tsv] row: the closed-loop
    capacity of a (scheme, shard count) cell plus the open-loop run at
    the target rate that supplies its tail latency. *)
let capacity_row ~scheme ~shards ~policy ~workload ~records ~capacity_kops
    ~offered_rps outcome =
  let counts, status =
    match outcome with
    | Error msg -> (List.init 7 (fun _ -> 0), "crashed: " ^ msg)
    | Ok st ->
      let s = summary st in
      ( [ st.completed; st.dropped; st.failed_over; st.lost; st.restarts;
          s.Latency.p50; s.Latency.p99 ],
        "ok" )
  in
  [ scheme; string_of_int shards; policy_name policy; Ycsb.name workload;
    string_of_int records; Printf.sprintf "%.1f" capacity_kops;
    Printf.sprintf "%.0f" offered_rps ]
  @ List.map string_of_int counts @ [ status ]
