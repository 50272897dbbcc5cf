open Helpers
module Epc = Sb_sgx.Epc
module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem

let test_epc_hit_after_fault () =
  let e = Epc.create ~capacity_pages:4 () in
  Alcotest.(check bool) "first touch faults" false (Epc.touch e ~page:1);
  Alcotest.(check bool) "then resident" true (Epc.touch e ~page:1)

let test_epc_capacity_respected () =
  let e = Epc.create ~capacity_pages:4 () in
  for p = 0 to 9 do
    ignore (Epc.touch e ~page:p)
  done;
  Alcotest.(check int) "resident never exceeds capacity" 4 (Epc.resident_pages e)

let test_epc_eviction_cycles () =
  let e = Epc.create ~capacity_pages:2 () in
  ignore (Epc.touch e ~page:1);
  ignore (Epc.touch e ~page:2);
  ignore (Epc.touch e ~page:3);            (* evicts someone *)
  Alcotest.(check int) "three faults so far" 3 (Epc.faults e);
  (* Touching all three again must fault at least once. *)
  ignore (Epc.touch e ~page:1);
  ignore (Epc.touch e ~page:2);
  ignore (Epc.touch e ~page:3);
  Alcotest.(check bool) "thrash faults" true (Epc.faults e > 3)

let test_epc_clear () =
  let e = Epc.create ~capacity_pages:2 () in
  ignore (Epc.touch e ~page:1);
  Epc.clear e;
  Alcotest.(check int) "cleared" 0 (Epc.resident_pages e);
  Alcotest.(check bool) "faults again" false (Epc.touch e ~page:1)

let test_memsys_inside_pays_more_than_outside () =
  (* A working set far beyond every cache: inside the enclave each DRAM
     access pays the MEE premium. *)
  let run env =
    let m = ms ~env () in
    let vm = Memsys.vmem m in
    let len = 4 * 1024 * 1024 in
    let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
    for i = 0 to (len / 64) - 1 do
      ignore (Memsys.load m ~addr:(a + (i * 64)) ~width:4)
    done;
    (Memsys.snapshot m).Memsys.cycles
  in
  let inside = run Config.Inside_enclave and outside = run Config.Outside_enclave in
  Alcotest.(check bool) "MEE premium" true (inside > outside * 3 / 2)

let test_memsys_epc_thrashing_counts_faults () =
  let m = ms () in
  let c = Memsys.cfg m in
  let vm = Memsys.vmem m in
  (* Working set = 2x EPC, random-ish strided sweep, twice. *)
  let len = 2 * c.Config.epc_bytes in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  for _pass = 1 to 2 do
    let i = ref 0 in
    while !i < len do
      ignore (Memsys.load m ~addr:(a + !i) ~width:4);
      i := !i + 4096
    done
  done;
  Alcotest.(check bool) "EPC faults observed" true (Memsys.epc_faults m > len / 4096)

let test_memsys_small_ws_no_faults_after_warmup () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  for _ = 1 to 100 do
    ignore (Memsys.load m ~addr:a ~width:8)
  done;
  Alcotest.(check int) "one fault only (warmup)" 1 (Memsys.epc_faults m)

let test_memsys_outside_never_faults () =
  let m = ms ~env:Config.Outside_enclave () in
  let vm = Memsys.vmem m in
  let len = 8 * 1024 * 1024 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let i = ref 0 in
  while !i < len do
    ignore (Memsys.load m ~addr:(a + !i) ~width:4);
    i := !i + 4096
  done;
  Alcotest.(check int) "no EPC outside" 0 (Memsys.epc_faults m)

let test_charge_alu_advances_clock () =
  let m = ms () in
  let before = (Memsys.snapshot m).Memsys.cycles in
  Memsys.charge_alu m 123;
  let after = (Memsys.snapshot m).Memsys.cycles in
  Alcotest.(check int) "cycles advance" 123 (after - before);
  Alcotest.(check int) "instrs counted" 123 (Memsys.snapshot m).Memsys.instrs

let test_thread_clocks_independent () =
  let m = ms () in
  Memsys.set_thread m 1;
  Memsys.charge_alu m 50;
  Memsys.set_thread m 2;
  Memsys.charge_alu m 80;
  Alcotest.(check int) "thread 1 clock" 50 (Memsys.get_clock m 1);
  Alcotest.(check int) "thread 2 clock" 80 (Memsys.get_clock m 2);
  Alcotest.(check int) "elapsed is max" 80 (Memsys.snapshot m).Memsys.cycles

let test_touch_line_crossing_costs_two () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  (* Warm both lines. *)
  Memsys.touch m ~addr:(a + 60) ~width:8;
  let c0 = Memsys.get_clock m 0 in
  Memsys.touch m ~addr:(a + 60) ~width:8;   (* crosses lines 0 and 1, both warm *)
  let cost_crossing = Memsys.get_clock m 0 - c0 in
  Memsys.touch m ~addr:a ~width:8;
  let cost_single = Memsys.get_clock m 0 - c0 - cost_crossing in
  Alcotest.(check int) "two L1 hits vs one" (2 * cost_single) cost_crossing

let test_reset_clears_stats_not_data () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  ignore (Memsys.store m ~addr:a ~width:4 42);
  Memsys.reset m;
  Alcotest.(check int) "stats cleared" 0 (Memsys.snapshot m).Memsys.mem_accesses;
  Alcotest.(check int) "data survives" 42 (Vmem.load vm ~addr:a ~width:4)

let suite =
  [
    Alcotest.test_case "EPC: hit after fault" `Quick test_epc_hit_after_fault;
    Alcotest.test_case "EPC: capacity respected" `Quick test_epc_capacity_respected;
    Alcotest.test_case "EPC: eviction under pressure" `Quick test_epc_eviction_cycles;
    Alcotest.test_case "EPC: clear" `Quick test_epc_clear;
    Alcotest.test_case "inside enclave pays MEE premium" `Quick test_memsys_inside_pays_more_than_outside;
    Alcotest.test_case "EPC thrashing counts faults" `Quick test_memsys_epc_thrashing_counts_faults;
    Alcotest.test_case "small working set: warmup faults only" `Quick test_memsys_small_ws_no_faults_after_warmup;
    Alcotest.test_case "outside enclave never EPC-faults" `Quick test_memsys_outside_never_faults;
    Alcotest.test_case "charge_alu advances clock" `Quick test_charge_alu_advances_clock;
    Alcotest.test_case "thread clocks independent; elapsed is max" `Quick test_thread_clocks_independent;
    Alcotest.test_case "line-crossing access costs two lines" `Quick test_touch_line_crossing_costs_two;
    Alcotest.test_case "reset clears stats, keeps data" `Quick test_reset_clears_stats_not_data;
  ]

let test_touch_range_counts_lines () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  Memsys.touch_range m ~addr:a ~len:640; (* exactly 10 lines *)
  Alcotest.(check int) "one access event per line" 10 (Memsys.snapshot m).Memsys.mem_accesses

let test_blit_costs_both_sides () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  Memsys.blit m ~src:a ~dst:(a + 4096) ~len:256;
  Alcotest.(check int) "4 src + 4 dst lines" 8 (Memsys.snapshot m).Memsys.mem_accesses

(* ---------- per-thread bucket rows, under both engines ---------- *)

module Fastpath = Sb_machine.Fastpath

let each_engine f =
  List.iter (fun k -> Fastpath.with_kind k f) [ Fastpath.Naive; Fastpath.Fast ]

let engine = Fastpath.current_name

let sum_rows m b =
  let s = ref 0 in
  for tid = 0 to (Memsys.cfg m).Config.max_threads - 1 do
    s := !s + (Memsys.thread_cycles m tid).(b)
  done;
  !s

let test_rows_sum_to_attribution () =
  each_engine @@ fun () ->
  let m = ms () in
  let a = Vmem.map (Memsys.vmem m) ~len:(4 * 4096) ~perm:Vmem.Read_write () in
  let worker t () =
    let base = a + (t * 4096) in
    for i = 0 to 511 do
      Memsys.store m ~addr:(base + (i * 8)) ~width:8 i;
      if i mod 5 = t then Memsys.touch ~cls:Memsys.Footer_meta m ~addr:base ~width:4;
      if i mod 64 = 0 then Memsys.charge_alu ~cls:Memsys.Overlay m (t + 1);
      Memsys.charge_alu m 2;
      if i mod (31 + t) = 0 then Sb_mt.Mt.yield ()
    done
  in
  Sb_mt.Mt.run m (Array.init 4 worker);
  let buckets = Array.length Memsys.profile_buckets in
  for t = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: thread %d charged its row" (engine ()) t)
      true
      (Array.exists (fun c -> c > 0) (Memsys.thread_cycles m t))
  done;
  List.iteri
    (fun i (c, (cs : Memsys.class_stat)) ->
       Alcotest.(check int)
         (Printf.sprintf "%s: rows sum to %s cycles" (engine ()) (Memsys.class_name c))
         cs.Memsys.cycles (sum_rows m i))
    (Memsys.attribution m);
  Alcotest.(check int) (engine () ^ ": rows sum to compute_cycles")
    (Memsys.compute_cycles m) (sum_rows m (buckets - 1));
  let total = ref 0 in
  for b = 0 to buckets - 1 do
    total := !total + sum_rows m b
  done;
  Alcotest.(check int) (engine () ^ ": rows sum to attributed_cycles")
    (Memsys.attributed_cycles m) !total;
  Memsys.retire m

let test_reset_zeroes_rows () =
  each_engine @@ fun () ->
  let m = ms () in
  let a = Vmem.map (Memsys.vmem m) ~len:4096 ~perm:Vmem.Read_write () in
  Memsys.set_thread m 3;
  Memsys.charge_alu m 10;
  for _ = 1 to 8 do
    Memsys.touch m ~addr:a ~width:8
  done;
  Memsys.reset m;
  Alcotest.(check (array int)) (engine () ^ ": thread 3 row zeroed")
    (Array.make (Array.length Memsys.profile_buckets) 0)
    (Memsys.thread_cycles m 3);
  Alcotest.(check int) (engine () ^ ": back on thread 0") 0 (Memsys.current_thread m);
  Memsys.charge_alu m 5;
  let row0 = Memsys.thread_cycles m 0 in
  Alcotest.(check int) (engine () ^ ": next charge lands in row 0")
    (5 * (Memsys.cfg m).Config.costs.Config.alu)
    row0.(Array.length row0 - 1);
  Alcotest.(check int) (engine () ^ ": thread 3 row still zero") 0
    (Array.fold_left ( + ) 0 (Memsys.thread_cycles m 3));
  Memsys.retire m

let test_set_thread_range () =
  let m = ms () in
  let n = (Memsys.cfg m).Config.max_threads in
  List.iter
    (fun tid ->
       match Memsys.set_thread m tid with
       | () -> Alcotest.failf "set_thread %d accepted" tid
       | exception Invalid_argument _ -> ())
    [ -1; n ];
  Memsys.set_thread m (n - 1);
  Memsys.charge_alu m 1;
  Alcotest.(check int) "last thread charges its own row" 1
    (Array.fold_left ( + ) 0 (Memsys.thread_cycles m (n - 1)));
  Memsys.retire m

let test_thread_cycles_flushes_batch () =
  let run () =
    let m = ms () in
    let a = Vmem.map (Memsys.vmem m) ~len:4096 ~perm:Vmem.Read_write () in
    Memsys.set_thread m 2;
    (* one miss, then a same-line streak the fast engine keeps pending *)
    for _ = 1 to 20 do
      Memsys.touch m ~addr:a ~width:8
    done;
    let row = Memsys.thread_cycles m 2 in
    let clock = Memsys.get_clock m 2 in
    Memsys.retire m;
    (row, clock)
  in
  let (fast_row, fast_clock) = Fastpath.with_kind Fastpath.Fast run in
  let (naive_row, naive_clock) = Fastpath.with_kind Fastpath.Naive run in
  Alcotest.(check int) "data bucket holds the whole streak" fast_clock fast_row.(0);
  Alcotest.(check int) "clocks agree" naive_clock fast_clock;
  Alcotest.(check (array int)) "fast row = naive row" naive_row fast_row

let extra_suite =
  [
    Alcotest.test_case "per-thread rows sum to attribution across Mt switches" `Quick
      test_rows_sum_to_attribution;
    Alcotest.test_case "reset zeroes the rows and the row index" `Quick
      test_reset_zeroes_rows;
    Alcotest.test_case "thread_cycles includes a pending same-line batch" `Quick
      test_thread_cycles_flushes_batch;
    Alcotest.test_case "set_thread admits only ids below max_threads" `Quick
      test_set_thread_range;
    Alcotest.test_case "touch_range counts lines" `Quick test_touch_range_counts_lines;
    Alcotest.test_case "blit costs both sides" `Quick test_blit_costs_both_sides;
  ]

let suite = suite @ extra_suite
