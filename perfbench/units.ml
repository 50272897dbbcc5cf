(** The benchmark's workloads.

    A workload is a fixed list of units. A unit is one simulated
    experiment on its own fresh machine, so simulated caches and EPC
    start empty in every unit: a SPEC or Phoenix/PARSEC cell (workload
    x scheme), a {!Sb_service.Service.run} phase, or a
    {!Sb_service.Fleet.run}. Running a unit splits host time into
    set-up (machine, scheme, app preload, and the machine's retirement)
    and the measured run, and returns a fingerprint of the unit's
    simulated results: the string the correctness check compares. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Wctx = Sb_workloads.Wctx
module Scheme = Sb_protection.Scheme
module Telemetry = Sb_telemetry.Telemetry
module Service = Sb_service.Service
module Fleet = Sb_service.Fleet
module Drivers = Sb_service.Drivers
module Spans = Sb_service.Spans
module Latency = Sb_service.Latency
module Histogram = Sb_telemetry.Metrics.Histogram
module Ycsb = Sb_service.Ycsb
open Sb_protection.Types

type kind =
  | Cell of { w : Registry.spec; scheme : string; threads : int }
  | Serve of { app : Drivers.app; scheme : string; requests : int; rate : float }
  | Fleet_ycsb of { requests : int; rate : float; kill_at : int }

type t = { id : string; kind : kind }

let schemes = [ "native"; "sgxbounds"; "asan"; "mpx" ]

let cells ~threads names =
  List.concat_map
    (fun wname ->
       let w = Registry.find wname in
       List.map
         (fun scheme -> { id = wname ^ "/" ^ scheme; kind = Cell { w; scheme; threads } })
         schemes)
    names

(* Service phases serve on one simulated worker so that handler calls
   never interleave on the host and each handler span is exactly one
   request's host time. Offered rates sit well below each app's
   capacity on one worker. *)
let serve_workers = 1

let kv_serve =
  [
    { id = "serve/memcached/sgxbounds";
      kind = Serve { app = Drivers.Memcached; scheme = "sgxbounds"; requests = 60_000; rate = 150_000. } };
    { id = "serve/memcached/asan";
      kind = Serve { app = Drivers.Memcached; scheme = "asan"; requests = 60_000; rate = 150_000. } };
    { id = "serve/http/sgxbounds";
      kind = Serve { app = Drivers.Http; scheme = "sgxbounds"; requests = 12_000; rate = 40_000. } };
    (* 2 instances, YCSB-A, instance 0 killed a third of the way in *)
    { id = "fleet/ycsb-a/sgxbounds";
      kind = Fleet_ycsb { requests = 60_000; rate = 150_000.; kill_at = 130_000_000 } };
  ]

(** The three workloads, in the order they are documented. *)
let workloads =
  [
    ("spec-epc", cells ~threads:1 [ "mcf"; "xalancbmk" ]);
    ( "phoenix-mt",
      cells ~threads:8
        [ "histogram"; "kmeans"; "linear_regression"; "matrixmul"; "string_match";
          "streamcluster" ] );
    ("kv-serve", kv_serve);
  ]

let workload_names = List.map fst workloads

(** Deterministic per-unit counts, read from the machine before it is
    retired. Zero where the unit does not expose a machine (the fleet
    builds and retires its own). *)
type counts = {
  accesses : int;
  meta_accesses : int;  (** accesses in any class but [Data] *)
  l1_hits : int;
  l1_misses : int;
  llc_misses : int;
  epc_faults : int;
  epc_evictions : int;
  checks_done : int;
  checks_hoisted : int;
  checks_elided : int;
  fused : int;          (** trace-engine fused accesses *)
  requests : int;       (** completed simulated requests *)
}

let zero =
  { accesses = 0; meta_accesses = 0; l1_hits = 0; l1_misses = 0; llc_misses = 0;
    epc_faults = 0; epc_evictions = 0; checks_done = 0; checks_hoisted = 0;
    checks_elided = 0; fused = 0; requests = 0 }

let add a b =
  {
    accesses = a.accesses + b.accesses;
    meta_accesses = a.meta_accesses + b.meta_accesses;
    l1_hits = a.l1_hits + b.l1_hits;
    l1_misses = a.l1_misses + b.l1_misses;
    llc_misses = a.llc_misses + b.llc_misses;
    epc_faults = a.epc_faults + b.epc_faults;
    epc_evictions = a.epc_evictions + b.epc_evictions;
    checks_done = a.checks_done + b.checks_done;
    checks_hoisted = a.checks_hoisted + b.checks_hoisted;
    checks_elided = a.checks_elided + b.checks_elided;
    fused = a.fused + b.fused;
    requests = a.requests + b.requests;
  }

let machine_counts ms (s : Scheme.t) ~requests =
  let snap = Memsys.snapshot ms in
  let l1 =
    match List.assoc_opt "L1" (Memsys.cache_stats ms) with
    | Some st -> st
    | None -> { Sb_cache.Hierarchy.hits = 0; misses = 0 }
  in
  let meta =
    List.fold_left
      (fun acc (c, (st : Memsys.class_stat)) ->
         if c = Memsys.Data then acc else acc + st.Memsys.accesses)
      0 (Memsys.attribution ms)
  in
  let x = s.Scheme.extras in
  {
    accesses = snap.Memsys.mem_accesses;
    meta_accesses = meta;
    l1_hits = l1.Sb_cache.Hierarchy.hits;
    l1_misses = l1.Sb_cache.Hierarchy.misses;
    llc_misses = snap.Memsys.llc_misses;
    epc_faults = snap.Memsys.epc_faults;
    epc_evictions = Memsys.epc_evictions ms;
    checks_done = x.checks_done;
    checks_hoisted = x.checks_hoisted;
    checks_elided = x.checks_elided;
    fused = (Memsys.trace_stats ms).Sb_machine.Trace.fused;
    requests;
  }

type result = {
  fp : string;       (** fingerprint of the simulated results *)
  counts : counts;
  setup_ns : int list;  (** the unit's own set-up, then {!setup_reps} extra samples *)
  run_ns : int;
}

(* Set-up is a few milliseconds per unit, so one sample per round is
   too few for a steady estimate: every unit is also set up and torn down
   this many extra times, outside its measured run, before its own
   set-up. *)
let setup_reps = 2

let extra_setups f =
  List.init setup_reps (fun _ ->
      let t0 = Tracer.now () in
      f ();
      Tracer.now () - t0)

(** How a unit is observed. [wrap] interposes on the freshly built
    scheme (fault injection); [slices], when given, is wrapped around
    that and charges host time from the wrap, before any app preload,
    to the end of the measured run; [observe] turns on what
    [run --json] / [serve --json] turn on (a telemetry hub for cells,
    request spans for service phases); [tr] records spans. *)
type hooks = {
  wrap : Scheme.t -> Scheme.t;
  slices : Tracer.Slices.t option;
  observe : bool option;  (** [None]: the unit's default *)
  tr : Tracer.t;
}

let plain = { wrap = Fun.id; slices = None; observe = None; tr = Tracer.off }

let crash_message = function
  | App_crash msg -> Some msg
  | Sb_vmem.Vmem.Enclave_oom _ -> Some "enclave out of memory"
  | Violation v -> Some (Fmt.str "%a" pp_violation v)
  | _ -> None

let snapshot_fp ms =
  let s = Memsys.snapshot ms in
  Printf.sprintf "cycles=%d instrs=%d acc=%d llc=%d epc=%d ev=%d" s.Memsys.cycles
    s.Memsys.instrs s.Memsys.mem_accesses s.Memsys.llc_misses s.Memsys.epc_faults
    (Memsys.epc_evictions ms)

let checks_fp (s : Scheme.t) =
  let x = s.Scheme.extras in
  Printf.sprintf "checks=%d/%d/%d viol=%d" x.checks_done x.checks_hoisted x.checks_elided
    x.violations

let latency_fp name h =
  let s = Latency.summary h in
  Printf.sprintf "%s=%d/%d/%d/%d/%d/%d" name s.Latency.count s.Latency.p50 s.Latency.p95
    s.Latency.p99 s.Latency.max (Histogram.sum h)

(* Machine, scheme and preload for units that own their machine. *)
let build hooks ~tel ~scheme =
  let ms = Tracer.span hooks.tr "memsys.create" (fun () -> Memsys.create ?tel (Config.default ())) in
  let s = Tracer.span hooks.tr "scheme.make" (fun () -> Harness.maker scheme ms) in
  let s = hooks.wrap s in
  match hooks.slices with
  | None -> (ms, s)
  | Some sl ->
    let s = Tracer.Slices.wrap sl s in
    Tracer.Slices.open_window sl;
    (ms, s)

let close_slices hooks = Option.iter Tracer.Slices.close_window hooks.slices

let run_cell hooks ~seed ~w ~scheme ~threads =
  let observe = Option.value hooks.observe ~default:false in
  let extra =
    extra_setups (fun () ->
        let ms, s = build plain ~tel:None ~scheme in
        ignore (Wctx.make ~seed ~threads s);
        Memsys.retire ms)
  in
  let t0 = Tracer.now () in
  let tel = if observe then Some (Telemetry.create ()) else None in
  let ms, s = build hooks ~tel ~scheme in
  let ctx = Wctx.make ~seed ~threads s in
  let t1 = Tracer.now () in
  let fp =
    Tracer.span hooks.tr "run" (fun () ->
        match w.Registry.run ctx ~n:w.Registry.default_n with
        | () -> Printf.sprintf "completed %s %s" (snapshot_fp ms) (checks_fp s)
        | exception e -> (
            match crash_message e with
            | Some msg -> Printf.sprintf "crashed %S %s" msg (snapshot_fp ms)
            | None -> raise e))
  in
  let t2 = Tracer.now () in
  close_slices hooks;
  let counts = machine_counts ms s ~requests:0 in
  Memsys.retire ms;
  let t3 = Tracer.now () in
  { fp; counts; setup_ns = (t1 - t0 + (t3 - t2)) :: extra; run_ns = t2 - t1 }

let run_serve hooks ~seed ~app ~scheme ~requests ~rate =
  let observe = Option.value hooks.observe ~default:true in
  let workers = serve_workers in
  let extra =
    extra_setups (fun () ->
        let ms, s = build plain ~tel:None ~scheme in
        ignore (Drivers.make_entries app (Wctx.make ~seed ~threads:workers s) ~workers);
        Memsys.retire ms)
  in
  let t0 = Tracer.now () in
  let ms, s = build hooks ~tel:None ~scheme in
  let ctx = Wctx.make ~seed ~threads:workers s in
  let entries =
    Tracer.span hooks.tr "app.preload" (fun () -> Drivers.make_entries app ctx ~workers)
  in
  let handler =
    if hooks.tr.Tracer.on then fun ~worker ->
      Tracer.span hooks.tr "handler" (fun () -> entries.Drivers.e_handler ~worker)
    else entries.Drivers.e_handler
  in
  (* request spans exactly as [serve --json] records them *)
  let log = if observe then Some (Spans.create ~workers ()) else None in
  let cfg =
    { Service.default with Service.workers; requests; rate_rps = rate; seed }
  in
  let t1 = Tracer.now () in
  let fp, completed =
    Tracer.span hooks.tr "service.run" (fun () ->
        match Service.run ?trace:log ms cfg handler with
        | st ->
          ( Printf.sprintf "served off=%d done=%d drop=%d el=%d maxq=%d %s %s %s %s"
              st.Service.offered st.Service.completed st.Service.dropped st.Service.elapsed
              st.Service.max_queue (latency_fp "lat" st.Service.latency)
              (latency_fp "qw" st.Service.queue_wait) (snapshot_fp ms) (checks_fp s),
            st.Service.completed )
        | exception e -> (
            match crash_message e with
            | Some msg -> (Printf.sprintf "crashed %S %s" msg (snapshot_fp ms), 0)
            | None -> raise e))
  in
  let t2 = Tracer.now () in
  close_slices hooks;
  let counts = machine_counts ms s ~requests:completed in
  Memsys.retire ms;
  let t3 = Tracer.now () in
  { fp; counts; setup_ns = (t1 - t0 + (t3 - t2)) :: extra; run_ns = t2 - t1 }

(* The fleet builds, kills, restarts and retires its own machines, so
   all of its host time is measured run time and its machines' counts
   are not visible from outside. *)
let run_fleet hooks ~seed ~requests ~rate ~kill_at =
  let observe = Option.value hooks.observe ~default:true in
  let cfg =
    {
      Fleet.default with
      Fleet.instances = 2;
      requests;
      rate_rps = rate;
      seed;
      scheme = "sgxbounds";
      policy = Fleet.Hash;
      workload = Ycsb.A;
      kills = [ (0, kill_at) ];
    }
  in
  let t0 = Tracer.now () in
  let fp, completed =
    Tracer.span hooks.tr "fleet.run" (fun () ->
        match Fleet.run ?spans:(if observe then Some 8 else None) cfg with
        | Ok st -> ("fleet " ^ Fleet.fingerprint st, st.Fleet.completed)
        | Error msg -> (Printf.sprintf "crashed %S" msg, 0))
  in
  let t1 = Tracer.now () in
  { fp; counts = { zero with requests = completed }; setup_ns = [ 0 ]; run_ns = t1 - t0 }

let run ?(hooks = plain) ~seed u =
  match u.kind with
  | Cell { w; scheme; threads } -> run_cell hooks ~seed ~w ~scheme ~threads
  | Serve { app; scheme; requests; rate } -> run_serve hooks ~seed ~app ~scheme ~requests ~rate
  | Fleet_ycsb { requests; rate; kill_at } -> run_fleet hooks ~seed ~requests ~rate ~kill_at
