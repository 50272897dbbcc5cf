(** Replay a trace through one protection scheme on a fresh machine,
    following an oracle {!Oracle.plan} verbatim.

    The replay records everything observable: where (and whether) the
    scheme stopped, every value its instrumented loads returned, the
    machine's simulated cycle/instruction/memory counters and the
    scheme's own check counters. Two runs of the same (trace, plan,
    scheme) under the two memory engines must produce structurally equal
    records — that is the fuzzer's first invariant.

    Machines are retired after each run ({!Sb_sgx.Memsys.retire}), so a
    campaign of thousands of replays recycles the multi-megabyte page
    arrays instead of re-zeroing them. *)

module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
open Sb_protection.Types

type stop = {
  at : int;           (** event index *)
  violation : bool;   (** detected violation vs. crash (fault/oom/...) *)
  detail : string;
}

type run = {
  stop : stop option;
  reads : int array array; (** per event, values its loads returned *)
  cycles : int;
  instrs : int;
  mem_accesses : int;
  llc_misses : int;
  epc_faults : int;
  checks_done : int;
  checks_elided : int;
  checks_hoisted : int;
  violations_counted : int; (** [extras.violations]: boundless counts *)
  boundless_accesses : int;
}

let pp_stop ppf (s : stop) =
  Format.fprintf ppf "event %d: %s (%s)" s.at
    (if s.violation then "violation" else "crash")
    s.detail

exception Stopped

let run ~maker ~(plan : Oracle.plan) (trace : Trace.t) : run =
  let n = Array.length trace in
  let ms = Memsys.create (Sb_machine.Config.default ()) in
  let s : Scheme.t = maker ms in
  let vm = Memsys.vmem ms in
  let slots : ptr option array = Array.make plan.p_slots None in
  let reads = Array.make n [||] in
  let stop = ref None in
  let tid = ref 0 in
  (* Raw zero-fill, uncosted and uninstrumented: makes global/stack
     blocks (which some allocators recycle without clearing) identical
     across schemes, like calloc does for the heap. *)
  let raw_zero addr len =
    for i = 0 to len - 1 do
      Vmem.store vm ~addr:(addr + i) ~width:1 0
    done
  in
  (* The plan only marks events Exec when the oracle saw the slot
     allocated, so a missing pointer is a harness bug, not a trace
     property — surface it as a loud stop, never silently. *)
  let ptr_of id =
    match slots.(id) with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Replay: slot #%d used before alloc" id)
  in
  let exec_event i (x : Oracle.exec) ev =
    let log = ref [] in
    let record v = log := v :: !log in
    (match ev with
     | Trace.Yield ->
       tid := 1 - !tid;
       Memsys.set_thread ms !tid
     | Trace.Alloc { id; size; region } ->
       let p =
         match region with
         | Trace.Heap -> s.Scheme.calloc 1 size
         | Trace.Global ->
           let p = s.Scheme.global size in
           raw_zero (s.Scheme.addr_of p) size;
           p
         | Trace.Stack ->
           let p = s.Scheme.stack_alloc size in
           raw_zero (s.Scheme.addr_of p) size;
           p
       in
       slots.(id) <- Some p
     | Trace.Free { id } -> s.Scheme.free (ptr_of id)
     | Trace.Realloc { id; size } -> slots.(id) <- Some (s.Scheme.realloc (ptr_of id) size)
     | Trace.Load { id; off; width; safe } ->
       let p = s.Scheme.offset (ptr_of id) off in
       let v = if safe then s.Scheme.safe_load p width else s.Scheme.load p width in
       record v
     | Trace.Store { id; off; width; value; safe } ->
       let p = s.Scheme.offset (ptr_of id) off in
       if safe then s.Scheme.safe_store p width value else s.Scheme.store p width value
     | Trace.Range_loop { id; off; len } ->
       let p0 = s.Scheme.offset (ptr_of id) off in
       s.Scheme.check_range p0 len Read;
       for j = 0 to len - 1 do
         record (s.Scheme.load_unchecked (s.Scheme.offset p0 j) 1)
       done
     | Trace.Memcpy { dst; dst_off; src; src_off; len } ->
       let psrc = s.Scheme.offset (ptr_of src) src_off in
       let pdst = s.Scheme.offset (ptr_of dst) dst_off in
       Sb_libc.Simlibc.memcpy s ~dst:pdst ~src:psrc ~len
     | Trace.Strcpy { dst; src; len = _ } ->
       let psrc = ptr_of src and pdst = ptr_of dst in
       let n = x.Oracle.x_strcpy_n in
       let a = s.Scheme.addr_of psrc in
       for j = 0 to n - 1 do
         Vmem.store vm ~addr:(a + j) ~width:1 (Oracle.plant_byte j)
       done;
       Vmem.store vm ~addr:(a + n) ~width:1 0;
       ignore (Sb_libc.Simlibc.strcpy s ~dst:pdst ~src:psrc : int));
    reads.(i) <- Array.of_list (List.rev !log)
  in
  (try
     for i = 0 to n - 1 do
       match plan.p_dispositions.(i) with
       | Oracle.Skip -> ()
       | Oracle.Exec x -> (
           try exec_event i x trace.(i) with
           | Violation v ->
             stop := Some { at = i; violation = true;
                            detail = Printf.sprintf "%s: %s @%#x" v.scheme v.reason v.addr };
             raise Stopped
           | Vmem.Fault { addr; kind } ->
             let k = match kind with
               | Vmem.Unmapped -> "unmapped"
               | Vmem.Guard_hit -> "guard"
               | Vmem.Write_to_ro -> "read-only"
             in
             stop := Some { at = i; violation = false;
                            detail = Printf.sprintf "fault (%s) @%#x" k addr };
             raise Stopped
           | Vmem.Enclave_oom _ ->
             stop := Some { at = i; violation = false; detail = "enclave OOM" };
             raise Stopped
           | App_crash msg ->
             stop := Some { at = i; violation = false; detail = "app crash: " ^ msg };
             raise Stopped
           | Invalid_argument msg | Failure msg ->
             stop := Some { at = i; violation = false; detail = "internal: " ^ msg };
             raise Stopped)
     done
   with Stopped -> ());
  let snap = Memsys.snapshot ms in
  let r =
    {
      stop = !stop;
      reads;
      cycles = snap.Memsys.cycles;
      instrs = snap.Memsys.instrs;
      mem_accesses = snap.Memsys.mem_accesses;
      llc_misses = snap.Memsys.llc_misses;
      epc_faults = snap.Memsys.epc_faults;
      checks_done = s.Scheme.extras.checks_done;
      checks_elided = s.Scheme.extras.checks_elided;
      checks_hoisted = s.Scheme.extras.checks_hoisted;
      violations_counted = s.Scheme.extras.violations;
      boundless_accesses =
        s.Scheme.extras.boundless_reads + s.Scheme.extras.boundless_writes;
    }
  in
  Memsys.retire ms;
  r

(** [run] with the memory engine pinned to [kind] for every component
    the replay creates — the fuzzer's two-engine oracle replays each
    (trace, plan, scheme) under naive and fast and demands structurally
    equal records. *)
let run_engine ~kind ~maker ~plan trace =
  Sb_machine.Fastpath.with_kind kind (fun () -> run ~maker ~plan trace)
