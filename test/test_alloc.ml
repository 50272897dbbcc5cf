open Helpers
module Freelist = Sb_alloc.Freelist
module Buddy = Sb_alloc.Buddy
module Bump = Sb_alloc.Bump
module Stackmem = Sb_alloc.Stackmem
module Util = Sb_machine.Util

let with_heap f =
  let m = ms () in
  f m (Freelist.create m)

let test_alloc_aligned () =
  with_heap (fun _ h ->
      for size = 1 to 64 do
        let a = Freelist.alloc h size in
        Alcotest.(check int) "16-aligned" 0 (a mod 16)
      done)

let test_chunk_size_rounding () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 17 in
      Alcotest.(check int) "rounded to 32" 32 (Freelist.chunk_size h a);
      let b = Freelist.alloc h 600 in
      Alcotest.(check int) "rounded to 256B granule" 768 (Freelist.chunk_size h b))

let test_free_then_reuse () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 100 in
      Freelist.free h a;
      let b = Freelist.alloc h 100 in
      Alcotest.(check int) "exact-fit reuse" a b)

let test_double_free_rejected () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 100 in
      Freelist.free h a;
      match Freelist.free h a with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

let test_live_accounting () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 64 in
      let _b = Freelist.alloc h 64 in
      Alcotest.(check int) "two live" 2 (Freelist.live_chunks h);
      Alcotest.(check int) "bytes" 128 (Freelist.live_bytes h);
      Freelist.free h a;
      Alcotest.(check int) "one live" 1 (Freelist.live_chunks h))

let test_adjacency_of_fresh_allocs () =
  with_heap (fun _ h ->
      (* Fresh (bump) allocations are adjacent — heap overflows reach the
         next object, which the attack suites rely on. *)
      let a = Freelist.alloc h 32 in
      let b = Freelist.alloc h 32 in
      Alcotest.(check int) "header-separated neighbours" (a + 32 + 16) b)

let test_churn_footprint_bounded () =
  with_heap (fun m h ->
      (* Allocate/free in a loop: footprint must stay ~flat thanks to
         reuse (this is what ASan's quarantine deliberately breaks). *)
      for _ = 1 to 10_000 do
        let a = Freelist.alloc h 48 in
        Freelist.free h a
      done;
      let vm = Sb_sgx.Memsys.vmem m in
      Alcotest.(check bool) "footprint stays small" true
        (Sb_vmem.Vmem.peak_reserved_bytes vm < 256 * 1024))

let prop_no_overlap =
  QCheck.Test.make ~name:"live chunks never overlap" ~count:30
    QCheck.(list_of_size Gen.(int_range 10 60) (int_range 1 300))
    (fun sizes ->
       with_heap (fun _ h ->
           let ranges =
             List.map
               (fun s ->
                  let a = Freelist.alloc h s in
                  (a, a + Freelist.chunk_size h a))
               sizes
           in
           let sorted = List.sort compare ranges in
           let rec ok = function
             | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
             | _ -> true
           in
           ok sorted))

let prop_freelist_reuse_is_lifo_consistent =
  QCheck.Test.make ~name:"alloc after frees returns a freed or fresh chunk" ~count:30
    QCheck.(int_range 1 200)
    (fun size ->
       with_heap (fun _ h ->
           let a = Freelist.alloc h size in
           let b = Freelist.alloc h size in
           Freelist.free h a;
           Freelist.free h b;
           let c = Freelist.alloc h size in
           c = a || c = b))

(* --- buddy --- *)

let with_buddy f =
  let m = ms () in
  f m (Buddy.create m ~region_bytes:(1 lsl 20))

let test_buddy_pow2_sizes () =
  with_buddy (fun _ b ->
      let a = Buddy.alloc b 100 in
      Alcotest.(check int) "rounded to 128" 128 (Buddy.block_size b a);
      Alcotest.(check int) "aligned to own size" 0 (a mod 128))

let test_buddy_base_of () =
  with_buddy (fun _ b ->
      let a = Buddy.alloc b 100 in
      Alcotest.(check (option int)) "interior derives base" (Some a) (Buddy.base_of b (a + 77));
      Alcotest.(check (option int)) "free space has no base" None (Buddy.base_of b (a + 1000)))

let test_buddy_merge () =
  with_buddy (fun _ b ->
      let a1 = Buddy.alloc b 16 in
      let a2 = Buddy.alloc b 16 in
      Buddy.free b a1;
      Buddy.free b a2;
      (* After merging, a 32-byte block is available at the same base. *)
      let big = Buddy.alloc b 32 in
      Alcotest.(check int) "merged block reused" (min a1 a2) big)

let test_buddy_exhaustion () =
  with_buddy (fun _ b ->
      match
        for _ = 1 to 3000 do
          ignore (Buddy.alloc b 1024)
        done
      with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Sb_vmem.Vmem.Enclave_oom _ -> ())

let prop_buddy_alignment =
  QCheck.Test.make ~name:"buddy blocks size-aligned" ~count:100
    QCheck.(int_range 1 5000)
    (fun size ->
       with_buddy (fun _ b ->
           let a = Buddy.alloc b size in
           let s = Buddy.block_size b a in
           Util.is_pow2 s && s >= size && a mod s = 0))

(* --- bump and stack --- *)

let test_bump_monotonic () =
  let m = ms () in
  let g = Bump.create m () in
  let a = Bump.alloc g 100 in
  let b = Bump.alloc g 100 in
  Alcotest.(check bool) "monotonic" true (b > a);
  Alcotest.(check int) "used" 200 (Bump.used_bytes g)

let test_stack_grows_down () =
  let m = ms () in
  let s = Stackmem.create m ~size:65536 in
  let f = Stackmem.push_frame s in
  let a = Stackmem.alloc s 64 in
  let b = Stackmem.alloc s 64 in
  Alcotest.(check bool) "second local below first" true (b < a);
  Stackmem.pop_frame s f;
  Alcotest.(check int) "sp restored" f (Stackmem.sp s)

let test_stack_overflow () =
  let m = ms () in
  let s = Stackmem.create m ~size:4096 in
  (match
     let _ = Stackmem.push_frame s in
     for _ = 1 to 100 do
       ignore (Stackmem.alloc s 128)
     done
   with
   | () -> Alcotest.fail "expected stack overflow"
   | exception Failure _ -> ())

(* --- randomized allocator walks (seeded, reproducible) --- *)

module Rng = Sb_machine.Rng
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem

(* A random alloc/free walk asserting, after every allocation: the
   payload is aligned, fully inside mapped arena memory, and disjoint
   from every live chunk — in particular, a reused chunk never overlaps
   anything still allocated. Driven by Sb_machine.Rng so a failure
   reproduces from the seed in the test name. *)
let walk ~seed ~steps ~max_size m ~alloc ~free ~extent ~align =
  let vm = Memsys.vmem m in
  let rng = Rng.create seed in
  let live = Hashtbl.create 64 in (* payload addr -> (end, step) *)
  for step = 1 to steps do
    if Hashtbl.length live = 0 || Rng.bernoulli rng 0.6 then begin
      let size = 1 + Rng.int rng max_size in
      let a = alloc size in
      align ~addr:a ~size;
      if not (Vmem.is_mapped vm a && Vmem.is_mapped vm (a + size - 1)) then
        Alcotest.failf "step %d: payload [%#x, %#x) not mapped" step a (a + size);
      let e = a + extent a in
      Hashtbl.iter
        (fun a2 (e2, step2) ->
           if a < e2 && a2 < e then
             Alcotest.failf "step %d: chunk [%#x, %#x) overlaps live [%#x, %#x) from step %d"
               step a e a2 e2 step2)
        live;
      Hashtbl.replace live a (e, step)
    end
    else begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      let k = List.nth keys (Rng.int rng (List.length keys)) in
      free k;
      Hashtbl.remove live k
    end
  done

let test_freelist_walk seed () =
  with_heap (fun m h ->
      walk ~seed ~steps:400 ~max_size:300 m
        ~alloc:(Freelist.alloc h) ~free:(Freelist.free h)
        ~extent:(Freelist.chunk_size h)
        ~align:(fun ~addr ~size:_ ->
            if addr mod 16 <> 0 then Alcotest.failf "%#x not 16-aligned" addr))

let test_buddy_walk seed () =
  with_buddy (fun m b ->
      walk ~seed ~steps:400 ~max_size:500 m
        ~alloc:(Buddy.alloc b) ~free:(Buddy.free b)
        ~extent:(Buddy.block_size b)
        ~align:(fun ~addr ~size ->
            let bs = Buddy.block_size b addr in
            if not (Util.is_pow2 bs && bs >= size && addr mod bs = 0) then
              Alcotest.failf "%#x: block %d not size-aligned pow2 >= %d" addr bs size;
            (* interior pointers derive the base — what the scheme's
               check relies on *)
            let interior = addr + Rng.int (Rng.create (addr + seed)) bs in
            if Buddy.base_of b interior <> Some addr then
              Alcotest.failf "base_of %#x <> %#x" interior addr))

let test_bump_walk () =
  (* No free: every allocation must be fresh, mapped and disjoint. *)
  let m = ms () in
  let g = Bump.create m () in
  walk ~seed:12 ~steps:150 ~max_size:200 m
    ~alloc:(Bump.alloc g)
    ~free:(fun _ -> ())
    ~extent:(fun _ -> 1) (* conservative: starts must at least be distinct *)
    ~align:(fun ~addr:_ ~size:_ -> ())

let suite =
  [
    Alcotest.test_case "payloads 16-byte aligned" `Quick test_alloc_aligned;
    Alcotest.test_case "size-class rounding" `Quick test_chunk_size_rounding;
    Alcotest.test_case "free then exact-fit reuse" `Quick test_free_then_reuse;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "live accounting" `Quick test_live_accounting;
    Alcotest.test_case "fresh allocations adjacent" `Quick test_adjacency_of_fresh_allocs;
    Alcotest.test_case "churn keeps footprint flat" `Quick test_churn_footprint_bounded;
    qtest prop_no_overlap;
    qtest prop_freelist_reuse_is_lifo_consistent;
    Alcotest.test_case "buddy: power-of-two size-aligned blocks" `Quick test_buddy_pow2_sizes;
    Alcotest.test_case "buddy: base derivation" `Quick test_buddy_base_of;
    Alcotest.test_case "buddy: merge on free" `Quick test_buddy_merge;
    Alcotest.test_case "buddy: exhaustion raises" `Quick test_buddy_exhaustion;
    qtest prop_buddy_alignment;
    Alcotest.test_case "bump region monotonic" `Quick test_bump_monotonic;
    Alcotest.test_case "stack grows down, pop restores" `Quick test_stack_grows_down;
    Alcotest.test_case "stack overflow detected" `Quick test_stack_overflow;
    Alcotest.test_case "freelist random walk (seed 1)" `Quick (test_freelist_walk 1);
    Alcotest.test_case "freelist random walk (seed 2)" `Quick (test_freelist_walk 2);
    Alcotest.test_case "buddy random walk (seed 1)" `Quick (test_buddy_walk 1);
    Alcotest.test_case "buddy random walk (seed 2)" `Quick (test_buddy_walk 2);
    Alcotest.test_case "bump random walk" `Quick test_bump_walk;
  ]

(* --- the live-chunk table: contracts and a reference model --- *)

let test_is_live_rejects_non_payloads () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 48 in
      let big = Freelist.alloc h 20000 in
      let freed = Freelist.alloc h 48 in
      Freelist.free h freed;
      let dead name addr =
        Alcotest.(check bool) (name ^ ": not live") false (Freelist.is_live h addr);
        (match Freelist.chunk_size h addr with
         | _ -> Alcotest.failf "%s: chunk_size accepted %#x" name addr
         | exception Invalid_argument _ -> ());
        match Freelist.free h addr with
        | () -> Alcotest.failf "%s: free accepted %#x" name addr
        | exception Invalid_argument _ -> ()
      in
      Alcotest.(check bool) "payload live" true (Freelist.is_live h a);
      Alcotest.(check bool) "large payload live" true (Freelist.is_live h big);
      dead "negative" (-16);
      dead "negative payload alias" (a - (1 lsl 40));
      dead "misaligned by 1" (a + 1);
      dead "misaligned by 8" (a + 8);
      dead "header" (a - 16);
      dead "interior of a large chunk" (big + 4096);
      dead "beyond addr_mask" (Vmem.addr_mask + 1);
      dead "payload alias above addr_mask" (a + (Vmem.addr_mask + 1));
      dead "max_int" (max_int land lnot 15);
      dead "never allocated" (Vmem.addr_mask land lnot 4095);
      dead "freed" freed;
      Alcotest.(check int) "two live chunks" 2 (Freelist.live_chunks h))

let test_double_and_wild_free_raise () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 100 in
      Freelist.free h a;
      Alcotest.check_raises "double free"
        (Invalid_argument "Freelist.free: not a live chunk") (fun () -> Freelist.free h a);
      Alcotest.check_raises "wild free"
        (Invalid_argument "Freelist.free: not a live chunk")
        (fun () -> Freelist.free h 0x4000_0000);
      (* the failed frees left the accounting alone *)
      Alcotest.(check int) "no live chunks" 0 (Freelist.live_chunks h);
      Alcotest.(check int) "no live bytes" 0 (Freelist.live_bytes h);
      let b = Freelist.alloc h 100 in
      Alcotest.(check int) "reuses the freed chunk once" a b;
      Alcotest.(check bool) "next alloc is fresh" true (Freelist.alloc h 100 <> a))

(* Size classes as the allocator documents them. *)
let ref_class size =
  if size <= 512 then Util.align_up (max size 16) 16
  else if size <= 65536 then Util.align_up size 256
  else Util.align_up size 4096

let test_churn_matches_reference seed () =
  with_heap (fun _ h ->
      let rng = Rng.create seed in
      let model = Hashtbl.create 256 in (* payload -> class *)
      let check step =
        let bytes = Hashtbl.fold (fun _ c acc -> acc + c) model 0 in
        if Freelist.live_chunks h <> Hashtbl.length model then
          Alcotest.failf "step %d: live_chunks %d, model %d" step (Freelist.live_chunks h)
            (Hashtbl.length model);
        if Freelist.live_bytes h <> bytes then
          Alcotest.failf "step %d: live_bytes %d, model %d" step (Freelist.live_bytes h) bytes;
        Hashtbl.iter
          (fun a c ->
             if Freelist.chunk_size h a <> c then
               Alcotest.failf "step %d: chunk_size %#x = %d, model %d" step a
                 (Freelist.chunk_size h a) c)
          model
      in
      let freed = ref [] in
      for step = 1 to 1500 do
        if Hashtbl.length model = 0 || Rng.bernoulli rng 0.55 then begin
          let size =
            match Rng.int rng 10 with
            | 0 -> 513 + Rng.int rng 70000 (* page- and 256-granular classes *)
            | _ -> 1 + Rng.int rng 512
          in
          let a = Freelist.alloc h size in
          if Hashtbl.mem model a then Alcotest.failf "step %d: %#x handed out twice" step a;
          Hashtbl.replace model a (ref_class size)
        end
        else begin
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
          let a = List.nth (List.sort compare keys) (Rng.int rng (List.length keys)) in
          Freelist.free h a;
          Hashtbl.remove model a;
          freed := a :: !freed
        end;
        if step mod 100 = 0 then check step
      done;
      check 1500;
      List.iter
        (fun a ->
           if Freelist.is_live h a <> Hashtbl.mem model a then
             Alcotest.failf "is_live %#x disagrees with the model" a)
        !freed)

let suite =
  suite
  @ [
    Alcotest.test_case "live table: non-payload addresses are not live" `Quick
      test_is_live_rejects_non_payloads;
    Alcotest.test_case "live table: double and wild free raise" `Quick
      test_double_and_wild_free_raise;
    Alcotest.test_case "live table: churn matches a reference model (seed 1)" `Quick
      (test_churn_matches_reference 1);
    Alcotest.test_case "live table: churn matches a reference model (seed 2)" `Quick
      (test_churn_matches_reference 2);
  ]
