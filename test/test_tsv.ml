(** Declared TSV schemas: every committed table's writer produces output
    its own schema accepts, and the generic validator rejects broken
    tables, naming the offending row. *)

module Tsv = Sb_telemetry.Tsv
module Registry = Sb_workloads.Registry
module Fleet = Sb_service.Fleet
module Ycsb = Sb_service.Ycsb
module Experiment = Sb_service.Experiment
module Service = Sb_service.Service
module Drivers = Sb_service.Drivers
module Symex = Sb_analysis.Symex
module Optimizer = Sb_analysis.Optimizer
module Fex = Sb_fex.Fex
module Agreement = Sb_harness.Agreement
module Config = Sb_machine.Config

let valid schema contents =
  match Tsv.validate schema contents with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "%s rejected: %s" schema.Tsv.name (Tsv.error_to_string e)

let check_valid schema contents =
  Alcotest.(check bool) (schema.Tsv.name ^ " has rows") true (valid schema contents > 0);
  Alcotest.(check bool) (schema.Tsv.name ^ " found by its header") true
    (Option.map (fun s -> s.Tsv.name) (Tsv.find [ schema ] contents)
     = Some schema.Tsv.name)

(* ---------- each writer's output validates ---------- *)

let fleet_tsv =
  lazy
    (let cfg shards =
       {
         Fleet.default with
         Fleet.instances = shards;
         workers = 1;
         requests = 60;
         queue_cap = 60;
         rate_rps = 1e15;
         process = Sb_service.Loadgen.Fixed;
         policy = Fleet.Hash;
         records = 256;
       }
     in
     Tsv.to_string Fleet.capacity_schema
       (List.map
          (fun shards ->
             let outcome = Fleet.run (cfg shards) in
             let capacity_kops =
               match outcome with Ok st -> Fleet.throughput_rps st /. 1000. | Error _ -> 0.
             in
             Fleet.capacity_row ~scheme:"sgxbounds" ~shards ~policy:Fleet.Hash
               ~workload:Ycsb.A ~records:256 ~capacity_kops
               ~offered_rps:(capacity_kops *. 1000.) outcome)
          [ 1; 2; 3 ]))

let elision_tsv =
  lazy
    (Optimizer.tsv_of_rows
       (Optimizer.sweep ~schemes:[ "sgxbounds"; "asan" ]
          (List.map Registry.find [ "histogram"; "string_match"; "blackscholes" ])))

let matrix_tsv = lazy (Symex.matrix_tsv (Symex.corpus_sweep ~schemes:[ "native"; "sgxbounds" ] ()))

let test_fleet_writer () = check_valid Fleet.capacity_schema (Lazy.force fleet_tsv)
let test_matrix_writer () = check_valid Symex.matrix_schema (Lazy.force matrix_tsv)
let test_elision_writer () = check_valid Optimizer.elision_schema (Lazy.force elision_tsv)

let test_latency_writer () =
  let cell scheme =
    {
      Experiment.app = Drivers.Http;
      scheme;
      env = Config.Inside_enclave;
      cfg = { Service.default with Service.workers = 2; requests = 30; rate_rps = 50_000. };
    }
  in
  let points = Experiment.sweep [ cell "native"; cell "mpx" ] in
  check_valid Experiment.tsv_schema
    (Tsv.to_string Experiment.tsv_schema (List.map Experiment.tsv_row points))

let test_fex_writer () =
  (* dedup under MPX crashes: its row is all dashes *)
  let e =
    Fex.matrix ~name:"unit" ~description:"" ~baseline:"native"
      ~workloads:[ "histogram"; "dedup" ] ~schemes:[ "native"; "mpx" ] ()
  in
  let tsv = Fex.to_tsv (Fex.normalize e (Fex.run e)) in
  check_valid Fex.schema tsv;
  Alcotest.(check bool) "a crashed row is present" true
    (List.exists
       (fun l -> String.ends_with ~suffix:"-\t-\t-\t-" l)
       (String.split_on_char '\n' tsv))

let test_agreement_writer () =
  let cells =
    List.filter
      (fun ((w : Registry.spec), _, _) -> w.Registry.name = "histogram")
      (Agreement.cells ~divisor:64)
  in
  let naive, mismatches = Agreement.sweep cells in
  Alcotest.(check int) "engines agree" 0 (List.length mismatches);
  check_valid Agreement.schema
    (Tsv.to_string Agreement.schema (List.map Agreement.row naive))

(* ---------- mutations are rejected, naming the row ---------- *)

(* Apply [f] to the cells of data row [row] (1-based). *)
let mutate contents ~row f =
  String.concat "\n"
    (List.mapi
       (fun i l ->
          if i = row then String.concat "\t" (f (String.split_on_char '\t' l)) else l)
       (String.split_on_char '\n' contents))

let set schema name v cells =
  List.map2 (fun (c, _) x -> if c = name then v else x) schema.Tsv.columns cells

let rejected ?row ~mentions schema contents =
  match Tsv.validate schema contents with
  | Ok _ -> Alcotest.failf "%s: mutation accepted" schema.Tsv.name
  | Error e ->
    Alcotest.(check (option int)) "row named" row e.Tsv.row;
    let msg = Tsv.error_to_string e in
    let rec has i =
      i + String.length mentions <= String.length msg
      && (String.sub msg i (String.length mentions) = mentions || has (i + 1))
    in
    if not (has 0) then Alcotest.failf "error %S does not mention %S" msg mentions

let test_column_count () =
  let t = Lazy.force fleet_tsv in
  rejected ~row:2 ~mentions:"14 columns (expected 15)" Fleet.capacity_schema
    (mutate t ~row:2 (fun cs -> List.rev (List.tl (List.rev cs))))

let test_non_integer_count () =
  let s = Fleet.capacity_schema in
  let t = Lazy.force fleet_tsv in
  rejected ~row:1 ~mentions:"completed" s (mutate t ~row:1 (set s "completed" "1.5"));
  rejected ~row:3 ~mentions:"p99_cycles" s (mutate t ~row:3 (set s "p99_cycles" "many"))

let test_unknown_status_or_outcome () =
  let t = Lazy.force fleet_tsv in
  rejected ~row:2 ~mentions:"status" Fleet.capacity_schema
    (mutate t ~row:2 (set Fleet.capacity_schema "status" "maybe"));
  let m = Lazy.force matrix_tsv in
  rejected ~row:3 ~mentions:"outcome" Symex.matrix_schema
    (mutate m ~row:3 (set Symex.matrix_schema "outcome" "exploded"));
  rejected ~row:1 ~mentions:"status" Symex.matrix_schema
    (mutate m ~row:1 (set Symex.matrix_schema "status" "fine"))

let test_checks_after_exceeds_before () =
  let s = Optimizer.elision_schema in
  let t = Lazy.force elision_tsv in
  rejected ~row:2 ~mentions:"checks_after <= checks_before" s
    (mutate t ~row:2 (fun cs ->
         let before = List.nth cs 4 in
         set s "checks_after" (string_of_int (int_of_string before + 1)) cs))

let test_too_few_strong_rows () =
  let s = Optimizer.elision_schema in
  let t = Lazy.force elision_tsv in
  (* rows 1, 3 and 5 are the strong sgxbounds ones; weaken two *)
  let strong = ref 0 in
  String.split_on_char '\n' t
  |> List.iteri (fun i l ->
      if i > 0 && l <> "" then
        match String.split_on_char '\t' l with
        | _ :: "sgxbounds" :: _ :: _ :: _ :: _ :: _ :: _ :: pct :: _
          when float_of_string pct >= 20. -> incr strong
        | _ -> ());
  Alcotest.(check int) "three strong rows to start from" 3 !strong;
  let weak = set s "removed_pct" "5.0" in
  rejected ~mentions:"at least 3 sgxbounds rows" s
    (mutate (mutate t ~row:1 weak) ~row:3 weak)

let test_header_and_empty () =
  let s = Fleet.capacity_schema in
  rejected ~mentions:"no data rows" s (Tsv.header s ^ "\n");
  rejected ~mentions:"header" s "scheme\tshards\n";
  Alcotest.(check bool) "unknown header finds no schema" true
    (Option.is_none (Tsv.find [ s; Symex.matrix_schema ] "a\tb\n1\t2\n"))

let test_writer_rejects_bad_cells () =
  let s = Symex.matrix_schema in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Tsv.line: interface_matrix: 1 cells for 8 columns")
    (fun () -> ignore (Tsv.line s [ "x" ]));
  match Tsv.line s [ "a\tb"; "x"; "ok"; "completed"; "0"; "-"; "0"; "0" ] with
  | _ -> Alcotest.fail "a tab inside a cell was accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "fleet capacity writer validates" `Quick test_fleet_writer;
    Alcotest.test_case "interface matrix writer validates" `Quick test_matrix_writer;
    Alcotest.test_case "check elision writer validates" `Quick test_elision_writer;
    Alcotest.test_case "fig13 latency writer validates" `Quick test_latency_writer;
    Alcotest.test_case "fex overhead writer validates" `Quick test_fex_writer;
    Alcotest.test_case "engine agreement writer validates" `Quick test_agreement_writer;
    Alcotest.test_case "wrong column count names its row" `Quick test_column_count;
    Alcotest.test_case "non-integer count names its row" `Quick test_non_integer_count;
    Alcotest.test_case "unknown status or outcome names its row" `Quick
      test_unknown_status_or_outcome;
    Alcotest.test_case "checks_after > checks_before names its row" `Quick
      test_checks_after_exceeds_before;
    Alcotest.test_case "fewer than 3 strong elision rows rejected" `Quick
      test_too_few_strong_rows;
    Alcotest.test_case "header mismatch and empty table rejected" `Quick
      test_header_and_empty;
    Alcotest.test_case "writer rejects malformed cells" `Quick test_writer_rejects_bad_cells;
  ]
