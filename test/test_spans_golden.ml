(** Golden tests for request spans.

    Two traced runs have their {!Sb_service.Spans.to_json} pinned byte for
    byte: a 4-worker service whose handlers interleave on the machine's
    simulated threads, and a 2-instance fleet whose kill lands while
    requests execute (the [abort] path, whose cycles still count in
    [exec_class_totals]). A span's class cycles are the difference of its
    worker's per-bucket cycle row across the execution window, so every
    span's [exec] is the sum of its [classes]. Both memory engines must
    produce the same bytes. *)

module Config = Sb_machine.Config
module Fastpath = Sb_machine.Fastpath
module Service = Sb_service.Service
module Experiment = Sb_service.Experiment
module Drivers = Sb_service.Drivers
module Fleet = Sb_service.Fleet
module Spans = Sb_service.Spans
module Json = Sb_telemetry.Json

let service_cfg =
  {
    Service.workers = 4;
    queue_cap = 16;
    requests = 120;
    rate_rps = 1_500_000.;
    process = Sb_service.Loadgen.Poisson;
    seed = 5;
  }

let service_log () =
  let p =
    Experiment.run_cell ~spans:3
      { Experiment.app = Drivers.Sqlite; scheme = "sgxbounds";
        env = Config.Inside_enclave; cfg = service_cfg }
  in
  (match p.Experiment.pt_outcome with
   | Ok st -> Alcotest.(check int) "every request served" 120 st.Service.completed
   | Error msg -> Alcotest.failf "service run crashed: %s" msg);
  Option.get p.Experiment.pt_spans

let fleet_cfg =
  {
    Fleet.default with
    Fleet.instances = 2;
    workers = 2;
    requests = 300;
    rate_rps = 2_000_000.;
    seed = 3;
    records = 512;
    kills = [ (0, 100_000) ];
  }

let fleet_logs () =
  match Fleet.run ~spans:2 fleet_cfg with
  | Error msg -> Alcotest.failf "fleet run crashed: %s" msg
  | Ok st ->
    Alcotest.(check int) "the kill caught both workers mid-request" 2
      st.Fleet.per_instance.(0).Fleet.i_lost;
    Array.map (fun (i : Fleet.inst_stats) -> Option.get i.Fleet.i_spans)
      st.Fleet.per_instance

let service_golden =
  {|{"recorded":120, "reservoir_cap":3, "exec_class_totals":{"data":58844,
"footer_meta":24600, "shadow":0, "bounds_table":0, "quarantine":0,
"overlay":0, "compute":156582}, "slowest":[{"id":20, "worker":2,
"arrival":1162781, "queue_wait":2933, "exec":1946, "sojourn":4879,
"classes":{"data":460, "footer_meta":190, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0, "compute":1296}}, {"id":23, "worker":0,
"arrival":1164409, "queue_wait":2871, "exec":1976, "sojourn":4847,
"classes":{"data":490, "footer_meta":190, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0, "compute":1296}}, {"id":21, "worker":1,
"arrival":1163046, "queue_wait":2801, "exec":1987, "sojourn":4788,
"classes":{"data":476, "footer_meta":206, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0,
"compute":1305}}]}|}

let fleet_golden =
  [|
    {|{"recorded":103, "reservoir_cap":2, "exec_class_totals":{"data":29844,
"footer_meta":6236, "shadow":0, "bounds_table":0, "quarantine":0,
"overlay":0, "compute":134158}, "slowest":[{"id":152, "worker":0,
"arrival":82668, "queue_wait":3587, "exec":1617, "sojourn":5204,
"classes":{"data":250, "footer_meta":76, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0, "compute":1291}}, {"id":96, "worker":0,
"arrival":53598, "queue_wait":3087, "exec":1506, "sojourn":4593,
"classes":{"data":190, "footer_meta":48, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0,
"compute":1268}}]}|};
    {|{"recorded":195, "reservoir_cap":2, "exec_class_totals":{"data":64330,
"footer_meta":11166, "shadow":0, "bounds_table":0, "quarantine":0,
"overlay":0, "compute":248309}, "slowest":[{"id":299, "worker":1,
"arrival":154682, "queue_wait":41343, "exec":2320, "sojourn":43663,
"classes":{"data":954, "footer_meta":76, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0, "compute":1290}}, {"id":298, "worker":0,
"arrival":154487, "queue_wait":40517, "exec":2292, "sojourn":42809,
"classes":{"data":926, "footer_meta":76, "shadow":0, "bounds_table":0,
"quarantine":0, "overlay":0,
"compute":1290}}]}|};
  |]

let engines = [ ("naive", Fastpath.Naive); ("fast", Fastpath.Fast) ]

let check_exec_is_class_sum label log =
  List.iter
    (fun sp ->
       Alcotest.(check int)
         (Printf.sprintf "%s span %d: exec = sum of classes" label sp.Spans.sp_id)
         (Spans.exec sp)
         (Array.fold_left ( + ) 0 sp.Spans.sp_classes))
    (Spans.slowest log)

let test_service_golden () =
  List.iter
    (fun (name, kind) ->
       let log = Fastpath.with_kind kind service_log in
       Alcotest.(check string) (name ^ ": spans json") service_golden
         (Json.to_string (Spans.to_json log));
       check_exec_is_class_sum name log;
       (* the retained exemplars ran concurrently on different workers *)
       let overlap a b =
         a.Spans.sp_worker <> b.Spans.sp_worker
         && a.Spans.sp_dequeue < b.Spans.sp_fin
         && b.Spans.sp_dequeue < a.Spans.sp_fin
       in
       let slow = Spans.slowest log in
       Alcotest.(check bool) (name ^ ": handlers interleave") true
         (List.exists (fun a -> List.exists (overlap a) slow) slow))
    engines

let test_fleet_golden () =
  List.iter
    (fun (name, kind) ->
       let logs = Fastpath.with_kind kind fleet_logs in
       Array.iteri
         (fun i log ->
            let label = Printf.sprintf "%s instance %d" name i in
            Alcotest.(check string) (label ^ ": spans json") fleet_golden.(i)
              (Json.to_string (Spans.to_json log));
            check_exec_is_class_sum label log)
         logs)
    engines

let suite =
  [
    Alcotest.test_case "4-worker service spans match golden" `Quick test_service_golden;
    Alcotest.test_case "fleet spans with a mid-request kill match golden" `Quick
      test_fleet_golden;
  ]
