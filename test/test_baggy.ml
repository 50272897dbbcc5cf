open Helpers
open Sb_protection.Types

let test_inbounds_ok () =
  let _, s = fresh baggy in
  let p = s.Scheme.malloc 64 in
  check_allows "in-bounds" (fun () ->
      for i = 0 to 63 do
        s.Scheme.store (s.Scheme.offset p i) 1 i
      done)

let test_allocation_bounds_semantics () =
  (* Baggy enforces allocation (power-of-two) bounds: an overflow inside
     the block's padding is NOT detected; beyond the block it is. *)
  let _, s = fresh baggy in
  let p = s.Scheme.malloc 100 in (* block is 128 *)
  check_allows "slop inside the 128-byte block" (fun () ->
      s.Scheme.store (s.Scheme.offset p 120) 1 0);
  check_detects "beyond the block" (fun () -> s.Scheme.store (s.Scheme.offset p 128) 1 0)

let test_exact_pow2_detected () =
  let _, s = fresh baggy in
  let p = s.Scheme.malloc 64 in (* block is exactly 64 *)
  check_detects "off-by-one on exact block" (fun () ->
      s.Scheme.store (s.Scheme.offset p 64) 1 0)

let test_free_space_access_detected () =
  let _, s = fresh baggy in
  let p = s.Scheme.malloc 64 in
  s.Scheme.free p;
  check_detects "access to freed block" (fun () -> ignore (s.Scheme.load p 1))

let test_bounds_derived_from_interior_pointer () =
  let _, s = fresh baggy in
  let p = s.Scheme.malloc 64 in
  let q = s.Scheme.offset p 32 in
  check_allows "interior pointer fine" (fun () -> ignore (s.Scheme.load q 4));
  check_detects "interior pointer bounded" (fun () ->
      ignore (s.Scheme.load (s.Scheme.offset q 32) 4))

let test_large_block_bounds () =
  (* An 80 KiB object takes a 128 KiB buddy block, which is aligned to
     its size within the buddy region but not in the address space. *)
  let _, s = fresh baggy in
  ignore (s.Scheme.malloc 64);
  let p = s.Scheme.malloc (80 * 1024) in
  check_allows "full-range read of the object" (fun () ->
      s.Scheme.libc_check p (80 * 1024) Read);
  check_detects "read straddling the end of the 128 KiB block" (fun () ->
      ignore (s.Scheme.load (s.Scheme.offset p ((128 * 1024) - 4)) 8))

let prop_slop_never_flagged_inside_block =
  QCheck.Test.make ~name:"baggy: accesses inside the pow2 block pass" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 0 255))
    (fun (size, off) ->
       let _, s = fresh baggy in
       let p = s.Scheme.malloc size in
       let block = Sb_machine.Util.next_pow2 (max size 16) in
       QCheck.assume (off < block);
       match s.Scheme.store (s.Scheme.offset p off) 1 1 with
       | () -> true
       | exception Violation _ -> false)

let suite =
  [
    Alcotest.test_case "in-bounds accesses pass" `Quick test_inbounds_ok;
    Alcotest.test_case "allocation-bounds slop allowed" `Quick test_allocation_bounds_semantics;
    Alcotest.test_case "exact pow2 off-by-one detected" `Quick test_exact_pow2_detected;
    Alcotest.test_case "freed block access detected" `Quick test_free_space_access_detected;
    Alcotest.test_case "interior pointers derive bounds" `Quick test_bounds_derived_from_interior_pointer;
    Alcotest.test_case "objects over 64 KiB keep their block bounds" `Quick
      test_large_block_bounds;
    qtest prop_slop_never_flagged_inside_block;
  ]
