module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem
module Hierarchy = Sb_cache.Hierarchy
module Telemetry = Sb_telemetry.Telemetry
module Histogram = Sb_telemetry.Metrics.Histogram

type access_class =
  | Data
  | Footer_meta
  | Shadow
  | Bounds_table
  | Quarantine
  | Overlay

let all_classes = [ Data; Footer_meta; Shadow; Bounds_table; Quarantine; Overlay ]
let n_classes = 6

let class_index = function
  | Data -> 0
  | Footer_meta -> 1
  | Shadow -> 2
  | Bounds_table -> 3
  | Quarantine -> 4
  | Overlay -> 5

let class_name = function
  | Data -> "data"
  | Footer_meta -> "footer_meta"
  | Shadow -> "shadow"
  | Bounds_table -> "bounds_table"
  | Quarantine -> "quarantine"
  | Overlay -> "overlay"

type class_stat = {
  accesses : int;
  cycles : int;
}

type snapshot = {
  cycles : int;
  instrs : int;
  mem_accesses : int;
  llc_misses : int;
  epc_faults : int;
}

type t = {
  cfg : Config.t;
  vmem : Vmem.t;
  hier : Hierarchy.t;
  epc : Epc.t option;
  tel : Telemetry.t;
  clocks : int array;
  mutable tid : int;
  mutable instrs : int;
  mutable mem_accesses : int;
  (* Cycle attribution: every cycle that enters [clocks] is also charged
     to exactly one bucket of the charging thread's row — a memory access
     class, or [n_classes] for unclassed compute — so the per-class
     breakdown always re-adds to the total (per thread; a parallel
     region's elapsed time is the max, not the sum). [cycles] holds
     [max_threads] rows of [n_classes + 1] buckets; [row] is the current
     thread's offset, so a charge is one add at [row + bucket]. A
     thread's row is a pure function of the machine, which is what
     request spans read ({!thread_cycles}). *)
  cls_accesses : int array;
  cycles : int array;
  mutable row : int;
  (* [access_cycles:<class>] histograms, indexed by class; empty when
     telemetry is off. *)
  hists : Histogram.t array;
  mutable yield_countdown : int;
  line_mask : int;
  dram_cost : int;          (* cost of a DRAM access in the current env *)
  (* Fast engine: last-line cost memo. Holds the line-aligned address of
     the hierarchy's most recent access (so that line is at way 0 of L1
     by the LRU invariant), or -1. A single-line access to it is an L1
     hit costing [l1_cost] with no other state change — the short path
     skips the hierarchy walk and the EPC entirely, with identical
     stats. Invalidated by [reset] (which flushes the caches). *)
  mutable last_line : int;
  l1_cost : int;
  (* L2/LLC hit costs, cached so [line_cost] resolves the common probe
     outcomes without a cross-module [Hierarchy.hit_cost] call. *)
  l2_cost : int;
  llc_cost : int;
  (* Whether [hists] exist — guards the per-charge observation. *)
  observing : bool;
  fast : bool;
  (* Fast engine: same-line streak accumulator. While
     consecutive single-line accesses stay on [last_line] with the same
     class, each has the identical effect (one L1 hit, [l1_cost] cycles
     to the same buckets), so only a count is kept and the batch is
     applied by [flush_pending] before any other bookkeeping runs or any
     stats are read — observable state equals the naive engine's at
     every read point. The yield countdown is still maintained per
     access, and the batch is flushed before a yield is performed, so
     cooperative scheduling (and every clock a scheduler could read) is
     bit-for-bit unchanged. The flush hands a batch to the telemetry
     histograms in one bulk observation, and the telemetry clock flushes
     before it is read, so observed runs batch too. *)
  mutable pend_k : int;
  mutable pend_ci : int;
  (* Disabled (false) while a profiler is attached: the profiler needs
     every charge delivered at the site where it happens, and a batch
     flushed later would land on whatever site is then current. Batching
     is stats-invariant, so toggling it never changes simulated
     metrics. *)
  mutable batch : bool;
  (* Site-attributed profiling hook ({!attach_profiler}): called with
     (bucket, cost) for every charge — bucket is the access class index,
     or [n_classes] for unclassed compute. One predicted branch when
     detached. The profiler is the only per-charge observer. *)
  mutable profiling : bool;
  mutable prof : int -> int -> unit;
}

let yield_quantum = 32
let row_len = n_classes + 1

(* Charge [c] cycles to bucket [b] of the current thread's row. The
   index is in bounds because [set_thread] admits only thread ids below
   [max_threads], so the hot path skips the bounds check. *)
let add_cycles t b c =
  let i = t.row + b in
  Array.unsafe_set t.cycles i (Array.unsafe_get t.cycles i + c)

(* ---------- cost model ---------- *)

let maybe_yield t =
  t.yield_countdown <- t.yield_countdown - 1;
  if t.yield_countdown <= 0 then begin
    t.yield_countdown <- yield_quantum;
    if Sb_machine.Eff.scheduler_active () then Effect.perform Sb_machine.Eff.Yield
  end

(* Cost of touching one cache line at [addr]. *)
let line_cost t addr =
  match Hierarchy.access t.hier ~addr with
  | Hierarchy.L1 -> t.l1_cost
  | Hierarchy.L2 -> t.l2_cost
  | Hierarchy.Llc -> t.llc_cost
  | Hierarchy.Dram ->
    let c = t.dram_cost in
    (match t.epc with
     | None -> c
     | Some epc ->
       if Epc.touch epc ~page:(addr lsr 12) then c else c + t.cfg.costs.epc_fault)

(* Apply a pending same-line streak: [pend_k] accesses, each an L1 hit
   of [l1_cost] cycles charged to class [pend_ci]. Must run before any
   other stats mutation (so a yield can never migrate the batch to
   another thread's clock) and before any stats read. *)
let flush_pending t =
  if t.pend_k > 0 then begin
    let k = t.pend_k in
    let ci = t.pend_ci in
    t.pend_k <- 0;
    t.mem_accesses <- t.mem_accesses + k;
    t.cls_accesses.(ci) <- t.cls_accesses.(ci) + k;
    let c = k * t.l1_cost in
    add_cycles t ci c;
    t.clocks.(t.tid) <- t.clocks.(t.tid) + c;
    if t.observing then Histogram.observe_n t.hists.(ci) t.l1_cost k;
    Hierarchy.count_l1_mru_hits t.hier k
  end

let create ?tel (cfg : Config.t) =
  let tel = match tel with Some t -> t | None -> Telemetry.disabled () in
  let fast = Sb_machine.Fastpath.is_enabled () in
  let epc =
    match cfg.env with
    | Config.Inside_enclave ->
      Some
        (Epc.create
           ~num_pages:((Vmem.addr_mask + 1) lsr 12)
           ~capacity_pages:(max 4 (cfg.epc_bytes / cfg.page_size))
           ())
    | Config.Outside_enclave -> None
  in
  let dram_cost =
    match cfg.env with
    | Config.Inside_enclave -> cfg.costs.dram * (100 + cfg.costs.mee_percent) / 100
    | Config.Outside_enclave -> cfg.costs.dram
  in
  let hists =
    if Telemetry.is_enabled tel then
      Array.of_list
        (List.map
           (fun c -> Telemetry.histogram tel ("access_cycles:" ^ class_name c))
           all_classes)
    else [||]
  in
  let hier = Hierarchy.create cfg in
  let t =
    {
      cfg;
      vmem = Vmem.create cfg;
      hier;
      epc;
      tel;
      clocks = Array.make cfg.max_threads 0;
      tid = 0;
      instrs = 0;
      mem_accesses = 0;
      cls_accesses = Array.make n_classes 0;
      cycles = Array.make (cfg.max_threads * row_len) 0;
      row = 0;
      hists;
      yield_countdown = yield_quantum;
      line_mask = lnot (cfg.line_size - 1);
      dram_cost;
      last_line = -1;
      l1_cost = Hierarchy.l1_hit_cost hier;
      l2_cost = cfg.costs.l2_hit;
      llc_cost = cfg.costs.llc_hit;
      observing = Telemetry.is_enabled tel;
      fast;
      pend_k = 0;
      pend_ci = 0;
      batch = fast;
      profiling = false;
      prof = (fun _ _ -> ());
    }
  in
  (* Flush first so a timestamp includes the pending same-line batch. *)
  Telemetry.set_clock tel (fun () ->
      flush_pending t;
      t.clocks.(t.tid));
  Telemetry.set_tid tel (fun () -> t.tid);
  (match epc with
   | Some e when Telemetry.is_enabled tel ->
     Epc.set_tracer e
       (Some
          (function
            | Epc.Fault { page } ->
              Telemetry.event tel ~cat:"epc" ~args:[ ("page", Printf.sprintf "0x%x" page) ]
                "epc_fault"
            | Epc.Evict { page; slot } ->
              Telemetry.event tel ~cat:"epc"
                ~args:
                  [ ("page", Printf.sprintf "0x%x" page); ("slot", string_of_int slot) ]
                "epc_evict"))
   | _ -> ());
  t

let cfg t = t.cfg
let vmem t = t.vmem
let telemetry t = t.tel

let charge_access t ci cost =
  t.cls_accesses.(ci) <- t.cls_accesses.(ci) + 1;
  add_cycles t ci cost;
  t.clocks.(t.tid) <- t.clocks.(t.tid) + cost;
  if t.observing then Histogram.observe t.hists.(ci) cost;
  if t.profiling then t.prof ci cost;
  maybe_yield t

let touch ?(cls = Data) t ~addr ~width =
  let ci = class_index cls in
  let first = addr land t.line_mask in
  let last = (addr + width - 1) land t.line_mask in
  if first = t.last_line && first = last then begin
    (* Same line as the previous access: guaranteed L1 hit at way 0. *)
    if t.batch then begin
      if t.pend_k > 0 && ci <> t.pend_ci then flush_pending t;
      t.pend_ci <- ci;
      t.pend_k <- t.pend_k + 1;
      t.yield_countdown <- t.yield_countdown - 1;
      if t.yield_countdown <= 0 then begin
        flush_pending t;
        t.yield_countdown <- yield_quantum;
        if Sb_machine.Eff.scheduler_active () then Effect.perform Sb_machine.Eff.Yield
      end
    end
    else begin
      t.mem_accesses <- t.mem_accesses + 1;
      Hierarchy.count_l1_mru_hits t.hier 1;
      charge_access t ci t.l1_cost
    end
  end
  else begin
    flush_pending t;
    t.mem_accesses <- t.mem_accesses + 1;
    (* The two line probes of a split access must run low-line-first:
       the last-line memo (and the L1 MRU invariant it relies on) needs
       [last] to be the most recently probed line, and OCaml evaluates
       [+] operands right-to-left, so the order is pinned with a let. *)
    let cost =
      if first = last then line_cost t addr
      else begin
        let c_first = line_cost t addr in
        c_first + line_cost t (addr + width - 1)
      end
    in
    if t.fast then t.last_line <- last;
    charge_access t ci cost
  end

let touch_range ?(cls = Data) t ~addr ~len =
  if len > 0 then begin
    flush_pending t;
    let line = t.cfg.line_size in
    let first = addr land t.line_mask in
    let last = (addr + len - 1) land t.line_mask in
    let a = ref first in
    let cost = ref 0 in
    let n = ref 0 in
    while !a <= last do
      cost := !cost + line_cost t !a;
      incr n;
      a := !a + line
    done;
    if t.fast then t.last_line <- last;
    let ci = class_index cls in
    t.mem_accesses <- t.mem_accesses + !n;
    t.cls_accesses.(ci) <- t.cls_accesses.(ci) + !n - 1;  (* charge_access adds 1 *)
    charge_access t ci !cost
  end

let load ?cls t ~addr ~width =
  touch ?cls t ~addr ~width;
  Vmem.load t.vmem ~addr ~width

let store ?cls t ~addr ~width v =
  touch ?cls t ~addr ~width;
  Vmem.store t.vmem ~addr ~width v

let blit ?cls t ~src ~dst ~len =
  touch_range ?cls t ~addr:src ~len;
  touch_range ?cls t ~addr:dst ~len;
  Vmem.blit t.vmem ~src ~dst ~len

let fill ?cls t ~addr ~len ~byte =
  touch_range ?cls t ~addr ~len;
  Vmem.fill t.vmem ~addr ~len ~byte

let charge_alu ?cls t n =
  t.instrs <- t.instrs + n;
  let c = n * t.cfg.costs.alu in
  let b = match cls with None -> n_classes | Some cl -> class_index cl in
  add_cycles t b c;
  if t.profiling then t.prof b c;
  t.clocks.(t.tid) <- t.clocks.(t.tid) + c

let set_thread t tid =
  if tid < 0 || tid >= t.cfg.max_threads then invalid_arg "Memsys.set_thread: no such thread";
  flush_pending t;
  t.tid <- tid;
  t.row <- tid * row_len

let current_thread t = t.tid

let get_clock t tid =
  flush_pending t;
  t.clocks.(tid)

let set_clock t tid v =
  flush_pending t;
  t.clocks.(tid) <- v

let elapsed t =
  flush_pending t;
  Array.fold_left max 0 t.clocks

let snapshot t =
  flush_pending t;
  {
    cycles = elapsed t;
    instrs = t.instrs;
    mem_accesses = t.mem_accesses;
    llc_misses = Hierarchy.llc_misses t.hier;
    epc_faults = (match t.epc with None -> 0 | Some e -> Epc.faults e);
  }

(* Bucket [b] summed over every thread's row. *)
let bucket_cycles t b =
  let s = ref 0 in
  for tid = 0 to t.cfg.max_threads - 1 do
    s := !s + t.cycles.((tid * row_len) + b)
  done;
  !s

let attribution t =
  flush_pending t;
  List.map
    (fun c ->
       let i = class_index c in
       (c, { accesses = t.cls_accesses.(i); cycles = bucket_cycles t i }))
    all_classes

let compute_cycles t = bucket_cycles t n_classes

let attributed_cycles t =
  flush_pending t;
  Array.fold_left ( + ) 0 t.cycles

let thread_cycles t tid =
  flush_pending t;
  Array.sub t.cycles (tid * row_len) row_len

let cache_stats t =
  flush_pending t;
  Hierarchy.stats t.hier

let trace_stats _ = { Sb_machine.Trace.fused = 0 }

let reset t =
  t.pend_k <- 0;
  (* A fresh run starts at the start of a yield quantum, so threads
     interleave exactly as on a newly created machine. *)
  t.yield_countdown <- yield_quantum;
  Array.fill t.clocks 0 (Array.length t.clocks) 0;
  t.tid <- 0;
  t.row <- 0;
  t.instrs <- 0;
  t.mem_accesses <- 0;
  Array.fill t.cls_accesses 0 n_classes 0;
  Array.fill t.cycles 0 (Array.length t.cycles) 0;
  t.last_line <- -1;
  Hierarchy.flush t.hier;
  Hierarchy.reset_stats t.hier;
  Telemetry.reset t.tel;
  match t.epc with None -> () | Some e -> Epc.clear e

let epc_faults t = match t.epc with None -> 0 | Some e -> Epc.faults e
let epc_evictions t = match t.epc with None -> 0 | Some e -> Epc.evictions e
let llc_misses t = Hierarchy.llc_misses t.hier

(* ---------- site-attributed profiling ---------- *)

module Profile = Sb_telemetry.Profile

let profile_buckets =
  Array.of_list (List.map class_name all_classes @ [ "compute" ])

let attach_profiler t p =
  if Array.length (Profile.bucket_names p) <> n_classes + 1 then
    invalid_arg "Memsys.attach_profiler: profiler buckets must be profile_buckets";
  Profile.ensure_threads p t.cfg.Config.max_threads;
  Profile.set_tid p (fun () -> t.tid);
  flush_pending t;
  t.prof <- Profile.charge p;
  t.profiling <- true;
  t.batch <- false

let detach_profiler t =
  flush_pending t;
  t.profiling <- false;
  t.prof <- (fun _ _ -> ());
  t.batch <- t.fast

let retire t =
  (match t.epc with None -> () | Some e -> Epc.retire e);
  Vmem.retire t.vmem
