open Helpers
module Vmem = Sb_vmem.Vmem

let create () = Vmem.create (cfg ())

let test_map_returns_aligned () =
  let vm = create () in
  let a = Vmem.map vm ~len:100 ~perm:Vmem.Read_write () in
  Alcotest.(check int) "page aligned" 0 (a mod Vmem.page_size)

let test_rw_widths () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  List.iter
    (fun (w, v) ->
       Vmem.store vm ~addr:(a + 8) ~width:w v;
       Alcotest.(check int) (Printf.sprintf "width %d" w) v (Vmem.load vm ~addr:(a + 8) ~width:w))
    [ (1, 0xAB); (2, 0xBEEF); (4, 0xDEADBEEF); (8, 0x1234_5678_9ABC) ]

let test_little_endian () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.store vm ~addr:a ~width:4 0x11223344;
  Alcotest.(check int) "low byte first" 0x44 (Vmem.load vm ~addr:a ~width:1);
  Alcotest.(check int) "high byte last" 0x11 (Vmem.load vm ~addr:(a + 3) ~width:1)

let test_page_crossing () =
  let vm = create () in
  let a = Vmem.map vm ~len:(2 * 4096) ~perm:Vmem.Read_write () in
  let addr = a + 4096 - 3 in
  Vmem.store vm ~addr ~width:8 0x0102030405060708;
  Alcotest.(check int) "cross-page roundtrip" 0x0102030405060708
    (Vmem.load vm ~addr ~width:8)

let test_unmapped_faults () =
  let vm = create () in
  Alcotest.check_raises "unmapped load"
    (Vmem.Fault { addr = 0x100; kind = Vmem.Unmapped })
    (fun () -> ignore (Vmem.load vm ~addr:0x100 ~width:1))

let test_guard_faults () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Guard () in
  Alcotest.check_raises "guard hit"
    (Vmem.Fault { addr = a; kind = Vmem.Guard_hit })
    (fun () -> ignore (Vmem.load vm ~addr:a ~width:1))

let test_readonly_faults_writes () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_only () in
  ignore (Vmem.load vm ~addr:a ~width:1);
  Alcotest.check_raises "ro write"
    (Vmem.Fault { addr = a; kind = Vmem.Write_to_ro })
    (fun () -> Vmem.store vm ~addr:a ~width:1 1)

let test_protect_changes_perm () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Guard;
  (match Vmem.load vm ~addr:a ~width:1 with
   | _ -> Alcotest.fail "expected fault"
   | exception Vmem.Fault _ -> ());
  Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Read_write;
  ignore (Vmem.load vm ~addr:a ~width:1)

let test_unmap () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let before = Vmem.reserved_bytes vm in
  Vmem.unmap vm ~addr:a ~len:8192;
  Alcotest.(check int) "reserved decreases" (before - 8192) (Vmem.reserved_bytes vm);
  Alcotest.(check bool) "no longer mapped" false (Vmem.is_mapped vm a)

let test_peak_tracking () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Vmem.unmap vm ~addr:a ~len:8192;
  ignore (Vmem.map vm ~len:4096 ~perm:Vmem.Read_write ());
  Alcotest.(check int) "peak is high-water mark" 8192 (Vmem.peak_reserved_bytes vm)

let test_oom_limit () =
  let vm = create () in
  let limit = (cfg ()).Sb_machine.Config.enclave_mem_limit in
  (match Vmem.map vm ~len:(limit + 4096) ~perm:Vmem.Read_write () with
   | _ -> Alcotest.fail "expected Enclave_oom"
   | exception Vmem.Enclave_oom _ -> ())

let test_fixed_map_overlap_rejected () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  (match Vmem.map vm ~addr:a ~len:4096 ~perm:Vmem.Read_write () with
   | _ -> Alcotest.fail "expected overlap rejection"
   | exception Invalid_argument _ -> ())

let test_blit_and_strings () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Vmem.write_string vm ~addr:a "hello, enclave";
  Vmem.blit vm ~src:a ~dst:(a + 4096 - 4) ~len:14;
  Alcotest.(check string) "blit across pages" "hello, enclave"
    (Vmem.read_string vm ~addr:(a + 4096 - 4) ~len:14)

let test_blit_overlap () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.write_string vm ~addr:a "abcdef";
  Vmem.blit vm ~src:a ~dst:(a + 2) ~len:6;
  Alcotest.(check string) "memmove semantics" "ababcdef"
    (Vmem.read_string vm ~addr:a ~len:8)

let test_fill () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.fill vm ~addr:(a + 10) ~len:20 ~byte:0x7F;
  Alcotest.(check int) "filled" 0x7F (Vmem.load vm ~addr:(a + 29) ~width:1);
  Alcotest.(check int) "boundary untouched" 0 (Vmem.load vm ~addr:(a + 30) ~width:1)

let prop_roundtrip =
  QCheck.Test.make ~name:"vmem store/load roundtrip" ~count:200
    QCheck.(pair (int_bound 4000) (int_bound 0xFFFF))
    (fun (off, v) ->
       let vm = create () in
       let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
       Vmem.store vm ~addr:(a + off) ~width:2 v;
       Vmem.load vm ~addr:(a + off) ~width:2 = v)

let prop_disjoint_writes =
  QCheck.Test.make ~name:"disjoint writes do not interfere" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (o1, o2) ->
       QCheck.assume (abs (o1 - o2) >= 4);
       let vm = create () in
       let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
       Vmem.store vm ~addr:(a + o1) ~width:4 0xAAAAAAAA;
       Vmem.store vm ~addr:(a + o2) ~width:4 0x55555555;
       Vmem.load vm ~addr:(a + o1) ~width:4 = 0xAAAAAAAA)

let suite =
  [
    Alcotest.test_case "map returns page-aligned address" `Quick test_map_returns_aligned;
    Alcotest.test_case "store/load all widths" `Quick test_rw_widths;
    Alcotest.test_case "little-endian layout" `Quick test_little_endian;
    Alcotest.test_case "page-crossing access" `Quick test_page_crossing;
    Alcotest.test_case "unmapped access faults" `Quick test_unmapped_faults;
    Alcotest.test_case "guard page faults" `Quick test_guard_faults;
    Alcotest.test_case "read-only write faults" `Quick test_readonly_faults_writes;
    Alcotest.test_case "protect changes permissions" `Quick test_protect_changes_perm;
    Alcotest.test_case "unmap releases reservation" `Quick test_unmap;
    Alcotest.test_case "peak reserved is a high-water mark" `Quick test_peak_tracking;
    Alcotest.test_case "enclave memory limit enforced" `Quick test_oom_limit;
    Alcotest.test_case "fixed-address overlap rejected" `Quick test_fixed_map_overlap_rejected;
    Alcotest.test_case "blit and string io" `Quick test_blit_and_strings;
    Alcotest.test_case "overlapping blit is memmove" `Quick test_blit_overlap;
    Alcotest.test_case "fill stays in range" `Quick test_fill;
    qtest prop_roundtrip;
    qtest prop_disjoint_writes;
  ]

(* --- additional edge cases --- *)

let test_map_at_top_of_address_space () =
  let vm = create () in
  let top = (1 lsl Vmem.addr_bits) - Vmem.page_size in
  let a = Vmem.map vm ~addr:top ~len:Vmem.page_size ~perm:Vmem.Read_write () in
  Vmem.store vm ~addr:(a + Vmem.page_size - 8) ~width:8 77;
  Alcotest.(check int) "top page usable" 77
    (Vmem.load vm ~addr:(a + Vmem.page_size - 8) ~width:8)

let test_protect_unmapped_faults () =
  let vm = create () in
  match Vmem.protect vm ~addr:0x200000 ~len:4096 ~perm:Vmem.Guard with
  | () -> Alcotest.fail "expected fault"
  | exception Vmem.Fault _ -> ()

let test_negative_address_faults () =
  let vm = create () in
  match Vmem.load vm ~addr:(-8) ~width:4 with
  | _ -> Alcotest.fail "expected fault"
  | exception Vmem.Fault _ -> ()

let test_headroom_accounting () =
  let vm = create () in
  let before = Vmem.headroom vm in
  ignore (Vmem.map vm ~len:8192 ~perm:Vmem.Read_write ());
  Alcotest.(check int) "headroom shrinks by the mapping" (before - 8192) (Vmem.headroom vm)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"write_string/read_string roundtrip" ~count:100
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
       let vm = create () in
       let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
       Vmem.write_string vm ~addr:a s;
       Vmem.read_string vm ~addr:a ~len:(String.length s) = s)

let extra_suite =
  [
    Alcotest.test_case "map at top of address space" `Quick test_map_at_top_of_address_space;
    Alcotest.test_case "protect on unmapped faults" `Quick test_protect_unmapped_faults;
    Alcotest.test_case "negative address faults" `Quick test_negative_address_faults;
    Alcotest.test_case "headroom accounting" `Quick test_headroom_accounting;
    qtest prop_string_roundtrip;
  ]

(* PR 2 regressions: allocator scan accounting and the unmap contract. *)

let page = Vmem.page_size
let num_pages = (Vmem.addr_mask + 1) / page

let test_find_gap_behind_long_run () =
  (* Regression: the next-fit scan used to advance its give-up counter by
     [npages] per candidate start, so walking a long mapped run burned
     the whole budget and raised Enclave_oom while a real gap sat right
     behind the run. A 4000-page blocker followed by a 256-page request
     must find the gap just after the blocker. *)
  let vm = create () in
  let blocker = Vmem.map vm ~addr:(16 * page) ~len:(4000 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "blocker at requested addr" (16 * page) blocker;
  let a = Vmem.map vm ~len:(256 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "gap found right behind the run" ((16 + 4000) * page) a

let test_find_gap_wraps_past_top () =
  (* Push the next-fit cursor to the very top of the address space, then
     allocate: the scan must wrap, skip a blocker at the bottom, and
     land just behind it — terminating rather than spinning or raising. *)
  let vm = Vmem.create (cfg ~scale:1 ()) in
  let chunk = 4096 in
  (* One short of a full sweep: cursor ends at page 16 + 127*4096 with
     fewer than [chunk] pages of headroom left above it. *)
  for _ = 1 to (num_pages / chunk) - 1 do
    let a = Vmem.map vm ~len:(chunk * page) ~perm:Vmem.Read_write () in
    Vmem.unmap vm ~addr:a ~len:(chunk * page)
  done;
  ignore (Vmem.map vm ~addr:(16 * page) ~len:(64 * page) ~perm:Vmem.Read_write ());
  (* [chunk] pages no longer fit above the cursor, so the scan must wrap
     to the bottom and land right behind the blocker. *)
  let a = Vmem.map vm ~len:(chunk * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "wrapped and skipped the blocker" (80 * page) a

let test_unmap_holes_accounting () =
  (* The documented contract: unmap is idempotent and hole-tolerant, and
     reserved_bytes moves only for pages that were actually mapped. *)
  let vm = create () in
  let base = Vmem.reserved_bytes vm in
  let a = Vmem.map vm ~len:(8 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "8 pages reserved" (base + (8 * page)) (Vmem.reserved_bytes vm);
  Vmem.unmap vm ~addr:(a + (3 * page)) ~len:(2 * page);
  Alcotest.(check int) "hole releases exactly 2 pages" (base + (6 * page))
    (Vmem.reserved_bytes vm);
  (* Unmapping the whole range again releases only the 6 still mapped. *)
  Vmem.unmap vm ~addr:a ~len:(8 * page);
  Alcotest.(check int) "re-unmap over holes never double-frees" base
    (Vmem.reserved_bytes vm);
  Vmem.unmap vm ~addr:a ~len:(8 * page);
  Alcotest.(check int) "unmap is idempotent" base (Vmem.reserved_bytes vm);
  (* Remapping into the freed hole re-reserves exactly what was released. *)
  let b = Vmem.map vm ~addr:(a + (3 * page)) ~len:(2 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "remap lands in the hole" (a + (3 * page)) b;
  Alcotest.(check int) "remap re-reserves exactly 2 pages" (base + (2 * page))
    (Vmem.reserved_bytes vm)

let pr2_suite =
  [
    Alcotest.test_case "find_gap: gap behind a long mapped run" `Quick
      test_find_gap_behind_long_run;
    Alcotest.test_case "find_gap: wraps past the top and terminates" `Quick
      test_find_gap_wraps_past_top;
    Alcotest.test_case "unmap: holes, idempotence, reserved accounting" `Quick
      test_unmap_holes_accounting;
  ]

let suite = suite @ extra_suite @ pr2_suite

(* Demand-zero pages: a mapped page shares one zero buffer until its
   first write. Each case runs under both engines, since only the fast
   one memoizes write translations. *)

module Fastpath = Sb_machine.Fastpath

let under_both_engines f () =
  List.iter (fun k -> Fastpath.with_kind k f) [ Fastpath.Fast; Fastpath.Naive ]

let test_unwritten_page_reads_zero () =
  let vm = create () in
  let a = Vmem.map vm ~len:(4 * page) ~perm:Vmem.Read_write () in
  List.iter
    (fun (off, w) ->
       Alcotest.(check int) (Printf.sprintf "+%d width %d" off w) 0
         (Vmem.load vm ~addr:(a + off) ~width:w))
    [ (0, 1); (8, 8); (page - 2, 4); (3 * page + 100, 2) ];
  Alcotest.(check string) "read_string" (String.make 64 '\000')
    (Vmem.read_string vm ~addr:(a + page) ~len:64);
  (* a write to one page leaves its untouched neighbours zero *)
  Vmem.store vm ~addr:(a + page) ~width:8 0x55;
  Alcotest.(check int) "written" 0x55 (Vmem.load vm ~addr:(a + page) ~width:8);
  Alcotest.(check int) "neighbour still zero" 0 (Vmem.load vm ~addr:(a + (2 * page)) ~width:8)

let test_zero_buffer_stays_zero () =
  (* Every write path, in one space, then fresh mappings in a new space
     must still read zero: no write may land in the shared buffer. *)
  let vm1 = create () in
  let a = Vmem.map vm1 ~len:(6 * page) ~perm:Vmem.Read_write () in
  Vmem.store vm1 ~addr:a ~width:8 (-1);
  Vmem.store vm1 ~addr:(a + page - 3) ~width:8 0x0102030405060708;
  Vmem.write_string vm1 ~addr:(a + (2 * page)) (String.make 100 'x');
  Vmem.fill vm1 ~addr:(a + (3 * page)) ~len:page ~byte:0xAB;
  Vmem.blit vm1 ~src:(a + (3 * page)) ~dst:(a + (4 * page) + 7) ~len:200;
  Vmem.store vm1 ~addr:(a + (5 * page) + 40) ~width:1 0xFF;
  let vm2 = create () in
  let b = Vmem.map vm2 ~len:(6 * page) ~perm:Vmem.Read_write () in
  for i = 0 to 6 * page / 8 - 1 do
    if Vmem.load vm2 ~addr:(b + (i * 8)) ~width:8 <> 0 then
      Alcotest.failf "fresh mapping reads non-zero at +%d" (i * 8)
  done;
  (* and a fresh mapping in the first space too *)
  let c = Vmem.map vm1 ~len:page ~perm:Vmem.Read_write () in
  Alcotest.(check int) "fresh mapping in the written space" 0
    (Vmem.load vm1 ~addr:(c + 40) ~width:8)

let test_protect_ro_to_rw_then_write () =
  let vm = create () in
  let a = Vmem.map vm ~len:(2 * page) ~perm:Vmem.Read_only () in
  Alcotest.(check int) "read-only page reads zero" 0 (Vmem.load vm ~addr:a ~width:8);
  Alcotest.check_raises "read-only write faults"
    (Vmem.Fault { addr = a; kind = Vmem.Write_to_ro })
    (fun () -> Vmem.store vm ~addr:a ~width:8 1);
  Vmem.protect vm ~addr:a ~len:page ~perm:Vmem.Read_write;
  Vmem.store vm ~addr:(a + 16) ~width:8 0xC0FFEE;
  Alcotest.(check int) "value kept" 0xC0FFEE (Vmem.load vm ~addr:(a + 16) ~width:8);
  Alcotest.check_raises "second page still read-only"
    (Vmem.Fault { addr = a + page; kind = Vmem.Write_to_ro })
    (fun () -> Vmem.store vm ~addr:(a + page) ~width:1 1);
  (* back to read-only: the value survives and writes fault again *)
  Vmem.protect vm ~addr:a ~len:page ~perm:Vmem.Read_only;
  Alcotest.(check int) "value survives re-protect" 0xC0FFEE
    (Vmem.load vm ~addr:(a + 16) ~width:8);
  Alcotest.check_raises "read-only again"
    (Vmem.Fault { addr = a + 16; kind = Vmem.Write_to_ro })
    (fun () -> Vmem.store vm ~addr:(a + 16) ~width:8 2)

let test_asan_arena_reservation () =
  (* The simulated memory metrics count the whole shadow arena at map
     time, written or not: ASan's reservation over native's is exactly
     the page-rounded scaled 512 MiB arena. *)
  let reserved maker =
    let m = ms () in
    ignore (maker m);
    let vm = Memsys.vmem m in
    (Vmem.reserved_bytes vm, Vmem.peak_reserved_bytes vm)
  in
  let arena =
    Sb_machine.Util.align_up (Config.scaled (cfg ()) (512 * 1024 * 1024)) page
  in
  let nr, np = reserved native and ar, ap = reserved asan in
  Alcotest.(check int) "reserved: arena over native" arena (ar - nr);
  Alcotest.(check int) "peak: arena over native" arena (ap - np);
  let vm = create () in
  let a = Vmem.map vm ~len:arena ~perm:Vmem.Read_write () in
  Alcotest.(check int) "reserved right after map" arena (Vmem.reserved_bytes vm);
  Alcotest.(check int) "peak right after map" arena (Vmem.peak_reserved_bytes vm);
  Vmem.store vm ~addr:(a + arena - 8) ~width:8 1;
  Alcotest.(check int) "a write does not move the reservation" arena
    (Vmem.reserved_bytes vm)

let demand_zero_suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick (under_both_engines f))
    [
      ("demand-zero: unwritten pages read 0", test_unwritten_page_reads_zero);
      ("demand-zero: shared zero buffer is never written", test_zero_buffer_stays_zero);
      ("demand-zero: protect ro->rw then write", test_protect_ro_to_rw_then_write);
      ("demand-zero: asan arena reservation unchanged", test_asan_arena_reservation);
    ]

let suite = suite @ demand_zero_suite
