(** Differential tests for the fast memory engine: under the fast and
    naive engines ({!Sb_machine.Fastpath}, env [SGXBOUNDS_ENGINE]),
    every *simulated* result must be bit-for-bit identical — cycles,
    instruction counts, per-class attribution, per-level cache stats,
    EPC faults/evictions, thread clocks, loaded values, crash messages.
    The fast engine may only change host wall-clock time. The access
    kernels below drive the edges of its same-line streak batching:
    stride patterns and breaks, interposed bulk probes, remaps, thread
    switches and profiler attach in the middle of a streak. *)

module Fastpath = Sb_machine.Fastpath
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Scheme = Sb_protection.Scheme
module Profile = Sb_telemetry.Profile

let both f = (Fastpath.with_kind Fastpath.Fast f, Fastpath.with_kind Fastpath.Naive f)

let check_int name a b = Alcotest.(check int) name b a

let check_metrics where (f : Harness.metrics) (n : Harness.metrics) =
  let at field = where ^ "." ^ field in
  check_int (at "cycles") f.Harness.cycles n.Harness.cycles;
  check_int (at "instrs") f.Harness.instrs n.Harness.instrs;
  check_int (at "mem_accesses") f.Harness.mem_accesses n.Harness.mem_accesses;
  check_int (at "llc_misses") f.Harness.llc_misses n.Harness.llc_misses;
  check_int (at "epc_faults") f.Harness.epc_faults n.Harness.epc_faults;
  check_int (at "epc_evictions") f.Harness.epc_evictions n.Harness.epc_evictions;
  check_int (at "peak_vm") f.Harness.peak_vm n.Harness.peak_vm;
  check_int (at "bts") f.Harness.bts n.Harness.bts;
  check_int (at "quarantine") f.Harness.quarantine n.Harness.quarantine;
  check_int (at "compute_cycles") f.Harness.compute_cycles n.Harness.compute_cycles;
  check_int (at "checks_done") f.Harness.checks_done n.Harness.checks_done;
  check_int (at "checks_elided") f.Harness.checks_elided n.Harness.checks_elided;
  check_int (at "checks_hoisted") f.Harness.checks_hoisted n.Harness.checks_hoisted;
  check_int (at "violations") f.Harness.violations n.Harness.violations;
  List.iter2
    (fun (c1, (s1 : Memsys.class_stat)) (c2, (s2 : Memsys.class_stat)) ->
       let cls = Memsys.class_name c1 in
       Alcotest.(check string) (at "attr class") (Memsys.class_name c2) cls;
       check_int (at ("attr accesses:" ^ cls)) s1.Memsys.accesses s2.Memsys.accesses;
       check_int (at ("attr cycles:" ^ cls)) s1.Memsys.cycles s2.Memsys.cycles)
    f.Harness.attribution n.Harness.attribution;
  List.iter2
    (fun (l1, (s1 : Sb_cache.Hierarchy.level_stats))
      (l2, (s2 : Sb_cache.Hierarchy.level_stats)) ->
      Alcotest.(check string) (at "cache level") l2 l1;
      check_int (at (l1 ^ " hits")) s1.Sb_cache.Hierarchy.hits s2.Sb_cache.Hierarchy.hits;
      check_int (at (l1 ^ " misses")) s1.Sb_cache.Hierarchy.misses
        s2.Sb_cache.Hierarchy.misses)
    f.Harness.cache n.Harness.cache

let check_outcome where fast naive =
  match (fast, naive) with
  | Harness.Completed f, Harness.Completed n -> check_metrics where f n
  | Harness.Crashed f, Harness.Crashed n ->
    Alcotest.(check string) (where ^ " crash message") n f
  | Harness.Completed _, Harness.Crashed m ->
    Alcotest.failf "%s: fast completed but naive crashed (%s)" where m
  | Harness.Crashed m, Harness.Completed _ ->
    Alcotest.failf "%s: fast crashed (%s) but naive completed" where m

(* ------------------------------------------------------------------ *)
(* Harness-level: full workloads under every scheme                    *)
(* ------------------------------------------------------------------ *)

let run_workload ~scheme ~threads w =
  let n = max 16 (w.Registry.default_n / 8) in
  (Harness.run_one ~threads ~n ~scheme w).Harness.outcome

let test_workloads () =
  List.iter
    (fun scheme ->
       List.iter
         (fun wname ->
            let w = Registry.find wname in
            let fast, naive = both (fun () -> run_workload ~scheme ~threads:1 w) in
            check_outcome (scheme ^ "/" ^ wname) fast naive)
         [ "kmeans"; "wordcount"; "mcf" ])
    [ "native"; "sgxbounds"; "sgxbounds-noopt"; "asan"; "mpx"; "baggy" ]

let test_workloads_mt () =
  (* Multithreaded run: the cooperative scheduler's interleaving depends
     on simulated clocks and yield points, so equality here proves the
     fast engine preserves both exactly. *)
  List.iter
    (fun scheme ->
       let w = Registry.find "pca" in
       let fast, naive = both (fun () -> run_workload ~scheme ~threads:4 w) in
       check_outcome (scheme ^ "/pca(t=4)") fast naive)
    [ "native"; "sgxbounds"; "asan" ]

(* ------------------------------------------------------------------ *)
(* Memsys-level: access microkernel incl. EPC thrash                   *)
(* ------------------------------------------------------------------ *)

type probe = {
  snap : Memsys.snapshot;
  attr : (Memsys.access_class * Memsys.class_stat) list;
  cache : (string * Sb_cache.Hierarchy.level_stats) list;
  evictions : int;
  clocks : int * int;
  compute : int;
}

let probe ms =
  {
    snap = Memsys.snapshot ms;
    attr = Memsys.attribution ms;
    cache = Memsys.cache_stats ms;
    evictions = Memsys.epc_evictions ms;
    clocks = (Memsys.get_clock ms 0, Memsys.get_clock ms 1);
    compute = Memsys.compute_cycles ms;
  }

let check_probe where (f : probe) (n : probe) =
  check_int (where ^ " cycles") f.snap.Memsys.cycles n.snap.Memsys.cycles;
  check_int (where ^ " instrs") f.snap.Memsys.instrs n.snap.Memsys.instrs;
  check_int (where ^ " mem_accesses") f.snap.Memsys.mem_accesses
    n.snap.Memsys.mem_accesses;
  check_int (where ^ " llc_misses") f.snap.Memsys.llc_misses n.snap.Memsys.llc_misses;
  check_int (where ^ " epc_faults") f.snap.Memsys.epc_faults n.snap.Memsys.epc_faults;
  check_int (where ^ " epc_evictions") f.evictions n.evictions;
  check_int (where ^ " clock0") (fst f.clocks) (fst n.clocks);
  check_int (where ^ " clock1") (snd f.clocks) (snd n.clocks);
  check_int (where ^ " compute") f.compute n.compute;
  List.iter2
    (fun (c, (s1 : Memsys.class_stat)) (_, (s2 : Memsys.class_stat)) ->
       check_int (where ^ " attr " ^ Memsys.class_name c) s1.Memsys.accesses
         s2.Memsys.accesses;
       check_int (where ^ " attr-cyc " ^ Memsys.class_name c) s1.Memsys.cycles
         s2.Memsys.cycles)
    f.attr n.attr;
  List.iter2
    (fun (l, (s1 : Sb_cache.Hierarchy.level_stats))
      (_, (s2 : Sb_cache.Hierarchy.level_stats)) ->
      check_int (where ^ " " ^ l ^ " hits") s1.Sb_cache.Hierarchy.hits
        s2.Sb_cache.Hierarchy.hits;
      check_int (where ^ " " ^ l ^ " misses") s1.Sb_cache.Hierarchy.misses
        s2.Sb_cache.Hierarchy.misses)
    f.cache n.cache

(* A microkernel touching every Memsys entry point, with an EPC smaller
   than the working set so paging and eviction run. Returns checkpoints
   (stats probes) and a digest of every value loaded. *)
let memsys_kernel () =
  (* 16 pages of EPC vs a 48-page working set: guaranteed thrash. *)
  let ms = Memsys.create (Config.default ~epc_bytes:(16 * 4096) ()) in
  let vm = Memsys.vmem ms in
  let len = 48 * 4096 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  (* hot-line hammer with class switches mid-streak *)
  for i = 1 to 500 do
    Memsys.store ms ~addr:a ~width:8 i;
    note (Memsys.load ms ~addr:a ~width:8);
    if i mod 7 = 0 then
      note (Memsys.load ~cls:Memsys.Footer_meta ms ~addr:a ~width:4)
  done;
  checkpoint ();
  (* sequential scan, all widths, including line-straddling accesses *)
  let off = ref 0 in
  while !off + 8 <= len do
    Memsys.store ms ~addr:(a + !off) ~width:4 (!off land 0xFFFF);
    note (Memsys.load ms ~addr:(a + !off) ~width:2);
    (* unaligned width-8 access straddling a line boundary every 64 B *)
    if !off mod 64 = 60 then note (Memsys.load ms ~addr:(a + !off) ~width:8);
    off := !off + 12
  done;
  checkpoint ();
  (* random loads across the whole (EPC-thrashing) working set *)
  let rng = Sb_machine.Rng.create 99 in
  for _ = 1 to 2000 do
    let o = Sb_machine.Rng.int rng (len - 8) in
    note (Memsys.load ms ~addr:(a + o) ~width:1)
  done;
  checkpoint ();
  (* bulk ops + reset + reuse *)
  Memsys.fill ms ~addr:a ~len:(len / 2) ~byte:0xAB;
  Memsys.blit ms ~src:a ~dst:(a + (len / 2)) ~len:(len / 4);
  note (Memsys.load ms ~addr:(a + (len / 2) + 100) ~width:8);
  checkpoint ();
  Memsys.reset ms;
  for i = 0 to 200 do
    Memsys.store ms ~addr:(a + (i * 64)) ~width:8 (i * 3);
    note (Memsys.load ms ~addr:(a + (i * 64)) ~width:8)
  done;
  checkpoint ();
  (List.rev !probes, !digest)

(* Run a kernel returning (checkpoints, loaded-value digest) under both
   engines and compare everything. *)
let check_kernel where kernel =
  let (pf, df), (pn, dn) = both kernel in
  check_int (where ^ " loaded-value digest") df dn;
  List.iteri
    (fun i (f, n) -> check_probe (Printf.sprintf "%s checkpoint %d" where i) f n)
    (List.combine pf pn)

let test_memsys_kernel () = check_kernel "memsys" memsys_kernel

(* Every access shape the streak batching distinguishes: contiguous
   scans at all widths (aligned and unaligned, so accesses straddle
   cache lines mid-stream), larger strides with per-access splits,
   backward scans, stride-0 hammering split by a class switch, abrupt
   pattern breaks, and bulk probes ([touch_range]/[blit]/[fill]) and
   ALU charges interposed in a streak. *)
let pattern_kernel ?tel () =
  let ms = Memsys.create ?tel (Config.default ()) in
  let vm = Memsys.vmem ms in
  let len = 64 * 1024 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to (len / 8) - 1 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 (i * 2654435761)
  done;
  checkpoint ();
  (* contiguous scans, all widths, aligned *)
  List.iter
    (fun w ->
       let i = ref 0 in
       while !i + w <= 4096 do
         note (Memsys.load ms ~addr:(a + !i) ~width:w);
         i := !i + w
       done)
    [ 1; 2; 4; 8 ];
  checkpoint ();
  (* unaligned scans: width 4 at stride 4 from a+1, width 8 at stride 8
     from a+5 — some accesses split across lines *)
  let i = ref 1 in
  while !i + 4 <= 2048 do
    note (Memsys.load ms ~addr:(a + !i) ~width:4);
    i := !i + 4
  done;
  let i = ref 5 in
  while !i + 8 <= 2048 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i + 8
  done;
  checkpoint ();
  (* strided with splits: stride 12 width 8; stride 48 width 4 *)
  let i = ref 0 in
  while !i + 8 <= 8192 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i + 12
  done;
  let i = ref 2 in
  while !i + 4 <= 8192 do
    note (Memsys.load ms ~addr:(a + !i) ~width:4);
    i := !i + 48
  done;
  checkpoint ();
  (* backward scan *)
  let i = ref (4096 - 8) in
  while !i >= 0 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i - 8
  done;
  checkpoint ();
  (* stride-0 hammer, split by a mid-stream class switch *)
  for k = 1 to 600 do
    Memsys.store ms ~addr:(a + 128) ~width:8 k;
    note (Memsys.load ms ~addr:(a + 128) ~width:8);
    if k = 300 then Memsys.touch ~cls:Memsys.Shadow ms ~addr:(a + 128) ~width:1
  done;
  checkpoint ();
  (* pattern breaks: two interleaved scans, a new line on every access *)
  for k = 0 to 255 do
    note (Memsys.load ms ~addr:(a + (k * 8)) ~width:8);
    note (Memsys.load ms ~addr:(a + 16384 + (k * 16)) ~width:8)
  done;
  checkpoint ();
  (* interposed probes land between batched accesses *)
  let i = ref 0 in
  while !i + 8 <= 4096 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    (match !i with
     | 1024 -> Memsys.touch_range ms ~addr:(a + 20000) ~len:300
     | 2048 -> Memsys.blit ms ~src:a ~dst:(a + 32768) ~len:256
     | 3072 -> Memsys.fill ms ~addr:(a + 24000) ~len:128 ~byte:0x5A
     | 1536 -> Memsys.charge_alu ms 7
     | _ -> ());
    i := !i + 8
  done;
  checkpoint ();
  (* metadata-class streaks: footer touches at stride 8 *)
  for k = 0 to 255 do
    Memsys.touch ~cls:Memsys.Footer_meta ms ~addr:(a + 40960 + (k * 8)) ~width:4
  done;
  checkpoint ();
  let r = (List.rev !probes, !digest) in
  Memsys.retire ms;
  r

let test_patterns () = check_kernel "patterns" pattern_kernel

(* With an enabled telemetry hub the fast engine still batches, and
   hands each batch to the histograms in one bulk observation; the
   results must not move. *)
let test_telemetry () =
  check_kernel "patterns+telemetry" (fun () ->
      pattern_kernel ~tel:(Sb_telemetry.Telemetry.create ~enabled:true ()) ())

(* What an enabled hub records while the fast engine batches: every
   [access_cycles:*] histogram (count, sum, max, buckets) and every event
   (phase spans opened and closed right after same-line streaks, EPC
   faults under a thrashing EPC), read with a streak still pending. *)
let telemetry_kernel () =
  let module Telemetry = Sb_telemetry.Telemetry in
  let module Histogram = Sb_telemetry.Metrics.Histogram in
  let tel = Telemetry.create () in
  let ms = Memsys.create ~tel (Config.default ~epc_bytes:(16 * 4096) ()) in
  let a = Vmem.map (Memsys.vmem ms) ~len:(48 * 4096) ~perm:Vmem.Read_write () in
  let streak ?cls addr n =
    for _ = 1 to n do
      Memsys.touch ?cls ms ~addr ~width:8
    done
  in
  Telemetry.with_span tel "hammer" (fun () ->
      for k = 0 to 47 do
        streak (a + (k * 4096)) 40;
        streak ~cls:Memsys.Footer_meta (a + (k * 4096) + 8) 9;
        Telemetry.with_span tel "page" (fun () -> streak (a + (k * 4096) + 64) 13)
      done);
  Telemetry.span_begin tel "tail";
  streak (a + 128) 21;
  Telemetry.span_end tel;
  streak (a + 192) 17;
  let hists =
    List.map
      (fun (name, h) ->
         ( name,
           (Histogram.count h, Histogram.sum h, Histogram.max_value h),
           Histogram.nonzero_buckets h ))
      (Telemetry.histograms tel)
  in
  let events =
    List.map
      (fun (e : Sb_telemetry.Events.event) ->
         ( e.Sb_telemetry.Events.name,
           e.Sb_telemetry.Events.ts,
           match e.Sb_telemetry.Events.ph with
           | Sb_telemetry.Events.Complete d -> d
           | _ -> -1 ))
      (Telemetry.events tel)
  in
  Memsys.retire ms;
  (hists, events)

let test_telemetry_batched () =
  let (fh, fe), (nh, ne) = both telemetry_kernel in
  Alcotest.(check bool) "access_cycles histograms recorded" true
    (List.exists (fun (_, (count, _, _), _) -> count > 0) nh);
  Alcotest.(check bool) "EPC and phase events recorded" true (List.length ne > 48);
  Alcotest.(check
              (list
                 (triple string (triple int int int) (list (triple int int int)))))
    "histograms" nh fh;
  Alcotest.(check (list (triple string int int))) "events (name, ts, dur)" ne fe

(* Unmap and protect in the middle of a scan: the address-space change
   must not disturb the accounting already batched, and a store fault
   after a protect must land at the same access with identical
   pre-fault accounting. *)
let remap_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  let b = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 1023 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i;
    Memsys.store ms ~addr:(b + (i * 4)) ~width:4 i
  done;
  for i = 0 to 511 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 300 then Vmem.unmap vm ~addr:b ~len:8192
  done;
  checkpoint ();
  let faulted = ref (-1) in
  (try
     for i = 0 to 511 do
       Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i;
       if i = 200 then Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Read_only
     done
   with Vmem.Fault { addr; _ } -> faulted := addr - a);
  note !faulted;
  checkpoint ();
  let r = (List.rev !probes, !digest) in
  Memsys.retire ms;
  r

let test_remap () = check_kernel "remap" remap_kernel

(* free/realloc during hot scans, through a real scheme's allocator *)
let alloc_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let s : Scheme.t = Sgxbounds.make ms in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let p = s.Scheme.calloc 1 4096 in
  let q = s.Scheme.calloc 1 2048 in
  for i = 0 to 4095 do
    s.Scheme.store (s.Scheme.offset p i) 1 (i land 0xff)
  done;
  (* scan [p]; free [q] mid-scan *)
  for i = 0 to 4088 do
    note (s.Scheme.load (s.Scheme.offset p i) 1);
    if i = 2000 then s.Scheme.free q
  done;
  (* realloc [p] mid-scan: the object may move *)
  let p = ref p in
  for i = 0 to 1023 do
    note (s.Scheme.load (s.Scheme.offset !p i) 1);
    if i = 512 then p := s.Scheme.realloc !p 8192
  done;
  let r = ([ probe ms ], !digest) in
  Memsys.retire ms;
  r

let test_alloc () = check_kernel "alloc" alloc_kernel

(* Switch threads in the middle of a same-line streak: the batched
   accounting must land on the thread that issued it, never migrate. *)
let thread_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  for i = 0 to 2047 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
  done;
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 2047 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 1000 then Memsys.set_thread ms 1;
    if i = 1500 then Memsys.set_thread ms 0
  done;
  let r = ([ probe ms ], !digest) in
  Memsys.retire ms;
  r

let test_thread_switch () = check_kernel "thread-switch" thread_kernel

(* Cooperative threads under [Mt.run]: the memory system yields every
   few accesses and the scheduler picks the smallest clock, so a streak
   is cut by a switch at the quantum boundary and explicit [Mt.yield]s
   land mid-streak. The log records which thread issued each access;
   interleaving, clocks and values must all match. *)
let mt_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:(4 * 8192) ~perm:Vmem.Read_write () in
  let log = Buffer.create 4096 in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let worker t () =
    let base = a + (t * 8192) in
    for i = 0 to 1023 do
      Memsys.store ms ~addr:(base + (i * 8)) ~width:8 (i + t);
      Buffer.add_char log (Char.chr (Char.code 'a' + t))
    done;
    for i = 0 to 1023 do
      (* threads 0 and 2 read their neighbour's region: shared lines *)
      let src = if t land 1 = 0 then a + (((t + 1) land 3) * 8192) else base in
      note (Memsys.load ms ~addr:(src + (i * 8)) ~width:8);
      if i mod (97 + t) = 0 then Sb_mt.Mt.yield ()
    done
  in
  Sb_mt.Mt.run ms (Array.init 4 worker);
  let r = ([ probe ms ], (!digest * 31) + Hashtbl.hash (Buffer.contents log)) in
  Memsys.retire ms;
  r

let test_mt () = check_kernel "mt-yields" mt_kernel

(* Attaching a profiler mid-scan stops batching until detach; simulated
   stats stay bit-identical and the profiler sees the same charges
   under both engines. *)
let profiler_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let prof = Profile.create ~buckets:Memsys.profile_buckets () in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 1023 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
  done;
  for i = 0 to 1023 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 400 then Memsys.attach_profiler ms prof;
    if i = 800 then Memsys.detach_profiler ms
  done;
  let p = probe ms in
  let profiled =
    List.fold_left (fun acc (r : Profile.row) -> acc + r.Profile.r_self) 0
      (Profile.rows prof)
  in
  Memsys.retire ms;
  ([ p ], (!digest * 31) + profiled)

let test_profiler_attach () = check_kernel "profiler-attach" profiler_kernel

(* Retire/create cycles hand page and EPC arrays through shared pools;
   a recycled machine must behave exactly like the first. *)
let pool_kernel () =
  let once () =
    let ms = Memsys.create (Config.default ()) in
    let vm = Memsys.vmem ms in
    let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
    let digest = ref 0 in
    for i = 0 to 1023 do
      Memsys.store ms ~addr:(a + (i * 8)) ~width:8 (i * 17)
    done;
    for i = 0 to 1023 do
      digest := (!digest * 31) + Memsys.load ms ~addr:(a + (i * 8)) ~width:8
    done;
    let p = probe ms in
    Memsys.retire ms;
    (p, !digest)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  let p0, d0 = List.hd runs in
  List.iteri
    (fun i (p, d) ->
       check_int (Printf.sprintf "machine %d digest" i) d d0;
       check_probe (Printf.sprintf "machine %d" i) p p0)
    runs;
  (List.map fst runs, d0)

let test_pool_reuse () = check_kernel "pool-reuse" pool_kernel

(* ------------------------------------------------------------------ *)
(* Vmem-level: values, faults and accounting                           *)
(* ------------------------------------------------------------------ *)

let vmem_kernel () =
  let vm = Vmem.create (Config.default ()) in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let a = Vmem.map vm ~len:(3 * 4096) ~perm:Vmem.Read_write () in
  (* all widths, signed values, page-straddling accesses *)
  Vmem.store vm ~addr:a ~width:8 (-1);
  note (Vmem.load vm ~addr:a ~width:8);
  Vmem.store vm ~addr:(a + 4094) ~width:8 0x1122334455667788;
  note (Vmem.load vm ~addr:(a + 4094) ~width:8);
  Vmem.store vm ~addr:(a + 13) ~width:4 0xCAFEBABE;
  note (Vmem.load vm ~addr:(a + 13) ~width:4);
  Vmem.store vm ~addr:(a + 21) ~width:2 0xBEEF;
  note (Vmem.load vm ~addr:(a + 21) ~width:2);
  Vmem.store vm ~addr:(a + 23) ~width:1 0x7F;
  note (Vmem.load vm ~addr:(a + 23) ~width:1);
  (* min_int exercises the sign bit through the store codec *)
  Vmem.store vm ~addr:(a + 64) ~width:8 min_int;
  note (Vmem.load vm ~addr:(a + 64) ~width:8);
  (* string round-trip across a page boundary *)
  let s = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  Vmem.write_string vm ~addr:(a + 4000) s;
  note (Hashtbl.hash (Vmem.read_string vm ~addr:(a + 4000) ~len:300));
  (* unmap middle page, check fault + accounting *)
  Vmem.unmap vm ~addr:(a + 4096) ~len:4096;
  note (Vmem.reserved_bytes vm);
  note (if Vmem.is_mapped vm (a + 4096) then 1 else 0);
  (match Vmem.load vm ~addr:(a + 4096) ~width:1 with
   | v -> note v
   | exception Vmem.Fault _ -> note 4242);
  (* write to a read-only page faults identically *)
  let ro = Vmem.map vm ~len:4096 ~perm:Vmem.Read_only () in
  (match Vmem.store vm ~addr:ro ~width:1 1 with
   | () -> note 0
   | exception Vmem.Fault _ -> note 777);
  note (Vmem.reserved_bytes vm);
  !digest

let test_vmem_kernel () =
  let df, dn = both vmem_kernel in
  check_int "vmem digest" df dn

(* ------------------------------------------------------------------ *)
(* EPC residency outside the fast engine's direct-mapped table          *)
(* ------------------------------------------------------------------ *)

module Epc = Sb_sgx.Epc

(* The fast engine keeps residency for pages inside the simulated
   address space in a direct table and everything else in a hashtable;
   the naive engine keeps all of it in the hashtable. Mix in-table pages
   with negative pages and pages above [addr_mask], on an EPC small
   enough that out-of-table pages get evicted and re-faulted, and record
   every residency answer, paging event and counter. *)
let epc_outside_kernel () =
  let num_pages = (Vmem.addr_mask + 1) lsr 12 in
  let e = Epc.create ~num_pages ~capacity_pages:6 () in
  let events = ref [] in
  Epc.set_tracer e
    (Some
       (function
         | Epc.Fault { page } -> events := (0, page, 0) :: !events
         | Epc.Evict { page; slot } -> events := (1, page, slot) :: !events));
  let pages =
    [| 0; 1; 17; num_pages - 1; -1; -4096; min_int; num_pages; num_pages + 5;
       (Vmem.addr_mask + 1) * 3; max_int |]
  in
  let rng = Sb_machine.Rng.create 7 in
  let log = ref [] in
  let checkpoint () =
    log := Epc.resident_pages e :: Epc.evictions e :: Epc.faults e :: !log
  in
  for i = 1 to 3000 do
    let page = Sb_machine.Rng.pick rng pages in
    log := (if Epc.touch e ~page then 1 else 0) :: !log;
    if i mod 500 = 0 then checkpoint ();
    if i = 1500 then Epc.clear e
  done;
  checkpoint ();
  (* Through the memory system: garbage addresses are charged (and reach
     the EPC) before Vmem faults them. *)
  let ms = Memsys.create (Config.default ~epc_bytes:(4 * 4096) ()) in
  let a = Vmem.map (Memsys.vmem ms) ~len:(8 * 4096) ~perm:Vmem.Read_write () in
  for i = 0 to 400 do
    let addr =
      match i mod 4 with
      | 0 -> a + (i * 4096 mod (8 * 4096))
      | 1 -> -((i * 4096) + 64)
      | 2 -> Vmem.addr_mask + 1 + (i * 4096)
      | _ -> a + 64
    in
    Memsys.touch ms ~addr ~width:8;
    match Memsys.load ms ~addr ~width:8 with
    | v -> log := v :: !log
    | exception Vmem.Fault _ -> log := -7 :: !log
  done;
  log := Memsys.epc_faults ms :: Memsys.epc_evictions ms :: !log;
  (List.rev !events, List.rev !log, probe ms)

let test_epc_outside_table () =
  let (ef, lf, pf), (en, ln, pn) = both epc_outside_kernel in
  Alcotest.(check (list (triple int int int))) "paging events" en ef;
  Alcotest.(check (list int)) "residency answers and counters" ln lf;
  check_probe "epc-outside memsys" pf pn

let suite =
  [
    Alcotest.test_case "fast = naive: workloads x schemes" `Slow test_workloads;
    Alcotest.test_case "fast = naive: multithreaded pca" `Slow test_workloads_mt;
    Alcotest.test_case "fast = naive: memsys microkernel (EPC thrash)" `Quick
      test_memsys_kernel;
    Alcotest.test_case "fast = naive: stride patterns, breaks, probes" `Quick test_patterns;
    Alcotest.test_case "fast = naive: telemetry hub enabled" `Quick test_telemetry;
    Alcotest.test_case "fast = naive: histograms and span timestamps under batching"
      `Quick test_telemetry_batched;
    Alcotest.test_case "fast = naive: unmap/protect mid-stream" `Quick test_remap;
    Alcotest.test_case "fast = naive: free/realloc through a scheme" `Quick test_alloc;
    Alcotest.test_case "fast = naive: thread switch mid-streak" `Quick test_thread_switch;
    Alcotest.test_case "fast = naive: Mt workload with yields" `Quick test_mt;
    Alcotest.test_case "fast = naive: profiler attach mid-run" `Quick test_profiler_attach;
    Alcotest.test_case "fast = naive: machine pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "fast = naive: vmem codecs, faults, accounting" `Quick
      test_vmem_kernel;
    Alcotest.test_case "fast = naive: EPC pages outside the direct table" `Quick
      test_epc_outside_table;
  ]
