module Fex = Sb_fex.Fex
module Harness = Sb_harness.Harness
module Config = Sb_machine.Config

let small_exp () =
  Fex.matrix ~name:"unit" ~description:"unit-test matrix" ~baseline:"native"
    ~workloads:[ "histogram"; "swaptions" ]
    ~schemes:[ "native"; "sgxbounds" ]
    ~sizes:[ Some 512 ] ()

let test_matrix_cartesian () =
  let e = small_exp () in
  Alcotest.(check int) "2 workloads x 2 schemes" 4 (List.length e.Fex.cells)

let test_baseline_must_be_present () =
  match
    Fex.matrix ~name:"x" ~description:"" ~baseline:"native" ~workloads:[ "histogram" ]
      ~schemes:[ "sgxbounds" ] ()
  with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_run_and_normalize () =
  let e = small_exp () in
  let ms = Fex.run e in
  Alcotest.(check int) "all cells measured" 4 (List.length ms);
  let rows = Fex.normalize e ms in
  Alcotest.(check int) "one normalized row per non-baseline cell" 2 (List.length rows);
  List.iter
    (fun r ->
       Alcotest.(check string) "scheme" "sgxbounds" r.Fex.row_scheme;
       match r.Fex.perf_x with
       | Some x -> Alcotest.(check bool) "overhead >= 1 in-enclave" true (x >= 0.99)
       | None -> Alcotest.fail "unexpected crash")
    rows

let test_crash_becomes_dash () =
  let e =
    Fex.matrix ~name:"crash" ~description:"" ~baseline:"native" ~workloads:[ "dedup" ]
      ~schemes:[ "native"; "mpx" ] ()
  in
  let rows = Fex.normalize e (Fex.run e) in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "mpx crash is None" true (r.Fex.perf_x = None);
    Alcotest.(check bool) "tsv renders dash" true
      (String.length (Fex.to_tsv rows) > 0
       && String.split_on_char '\t' (List.nth (String.split_on_char '\n' (Fex.to_tsv rows)) 1)
          |> fun cols -> List.nth cols 2 = "-")
  | _ -> Alcotest.fail "expected one row"

let test_gmeans () =
  let rows =
    [
      { Fex.row_workload = "a"; row_scheme = "s"; perf_x = Some 2.0; mem_x = None;
        llc_miss_x = None; epc_fault_x = None };
      { Fex.row_workload = "b"; row_scheme = "s"; perf_x = Some 8.0; mem_x = None;
        llc_miss_x = None; epc_fault_x = None };
    ]
  in
  Alcotest.(check (list (pair string (float 1e-9)))) "gmean" [ ("s", 4.0) ] (Fex.gmeans rows)

let test_determinism_check () =
  let e = small_exp () in
  Alcotest.(check int) "3 identical repetitions" 3 (Fex.check_deterministic e)

let test_write_results () =
  let e = small_exp () in
  let rows = Fex.normalize e (Fex.run e) in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sgxbounds-fex-test" in
  let tsv = Fex.write_results ~dir e rows in
  Alcotest.(check bool) "tsv written" true (Sys.file_exists tsv);
  Alcotest.(check bool) "gnuplot script written" true
    (Sys.file_exists (Filename.concat dir "unit.gp"));
  let ic = open_in tsv in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header present" true
    (String.length header > 0 && String.sub header 0 8 = "workload")

let test_jobs_invariant () =
  let e = small_exp () in
  let rows jobs = Fex.normalize e (Fex.run ~jobs e) in
  Alcotest.(check bool) "rows at jobs 1 = rows at jobs 2" true (rows 1 = rows 2)

let suite =
  [
    Alcotest.test_case "matrix is cartesian" `Quick test_matrix_cartesian;
    Alcotest.test_case "baseline must be in the matrix" `Quick test_baseline_must_be_present;
    Alcotest.test_case "run + normalize" `Quick test_run_and_normalize;
    Alcotest.test_case "crashes become dashes" `Quick test_crash_becomes_dash;
    Alcotest.test_case "gmeans" `Quick test_gmeans;
    Alcotest.test_case "determinism check" `Quick test_determinism_check;
    Alcotest.test_case "rows identical under --jobs 1 and 2" `Quick test_jobs_invariant;
    Alcotest.test_case "write tsv + gnuplot" `Quick test_write_results;
  ]
