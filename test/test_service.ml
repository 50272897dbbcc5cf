(** The open-loop service layer: arrival processes, latency-percentile
    math, the bounded-queue scheduler, and the Figure 13 experiment
    cells (determinism, engine equality, overload shedding). *)

open Helpers
module Rng = Sb_machine.Rng
module Fastpath = Sb_machine.Fastpath
module Histogram = Sb_telemetry.Metrics.Histogram
module Loadgen = Sb_service.Loadgen
module Latency = Sb_service.Latency
module Service = Sb_service.Service
module Drivers = Sb_service.Drivers
module Experiment = Sb_service.Experiment
module Tsv = Sb_telemetry.Tsv

(* ---------- load generation ---------- *)

let processes = [ Loadgen.Fixed; Loadgen.Poisson; Loadgen.Burst 16 ]

let test_arrivals_sorted_nonneg () =
  List.iter
    (fun p ->
       let rng = Rng.create 7 in
       let a = Loadgen.arrivals ~rng ~process:p ~rate_rps:1e6 ~n:500 in
       Alcotest.(check int) "count" 500 (Array.length a);
       let ok = ref (a.(0) >= 0) in
       for i = 1 to 499 do
         if a.(i) < a.(i - 1) then ok := false
       done;
       Alcotest.(check bool) (Loadgen.to_string p ^ ": sorted, nonnegative") true !ok)
    processes

let test_mean_rate () =
  (* every process offers the same mean rate: n arrivals span ~n gaps *)
  List.iter
    (fun p ->
       let rng = Rng.create 3 in
       let n = 4000 and rate = 200_000. in
       let a = Loadgen.arrivals ~rng ~process:p ~rate_rps:rate ~n in
       let expect = float_of_int n *. Loadgen.cycles_per_sec /. rate in
       let last = float_of_int a.(n - 1) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: span %.0f within 15%% of %.0f" (Loadgen.to_string p)
            last expect)
         true
         (last > 0.85 *. expect && last < 1.15 *. expect))
    processes

let test_burst_bunches () =
  let back_to_back p =
    let rng = Rng.create 5 in
    let a = Loadgen.arrivals ~rng ~process:p ~rate_rps:100_000. ~n:320 in
    let z = ref 0 in
    for i = 1 to 319 do
      if a.(i) = a.(i - 1) then incr z
    done;
    !z
  in
  Alcotest.(check bool) "burst groups arrive together" true
    (back_to_back (Loadgen.Burst 16) > 200);
  Alcotest.(check int) "fixed never bunches" 0 (back_to_back Loadgen.Fixed)

let test_arrivals_invalid_args () =
  let rng = Rng.create 1 in
  (match Loadgen.arrivals ~rng ~process:Loadgen.Fixed ~rate_rps:0. ~n:4 with
   | _ -> Alcotest.fail "zero rate accepted"
   | exception Invalid_argument _ -> ());
  match Loadgen.arrivals ~rng ~process:Loadgen.Fixed ~rate_rps:1e3 ~n:(-1) with
  | _ -> Alcotest.fail "negative count accepted"
  | exception Invalid_argument _ -> ()

let test_process_names_roundtrip () =
  List.iter
    (fun n ->
       match Loadgen.of_string n with
       | Some p -> Alcotest.(check string) "name roundtrip" n (Loadgen.to_string p)
       | None -> Alcotest.failf "listed process %s not parsed" n)
    Loadgen.process_names;
  Alcotest.(check bool) "unknown rejected" true (Loadgen.of_string "pareto" = None)

(* ---------- latency percentiles vs the exact reference ---------- *)

let test_interp_tracks_exact () =
  (* the interpolated estimate lives in the same power-of-two bucket as
     the exact nearest-rank value, so they agree within a factor of 2 *)
  let rng = Rng.create 11 in
  let samples = Array.init 500 (fun _ -> Rng.int rng 2_000_000) in
  let h = Histogram.create "t" in
  Array.iter (Histogram.observe h) samples;
  List.iter
    (fun q ->
       let exact = Latency.exact_percentile samples q in
       let est = Histogram.quantile_interp h q in
       Alcotest.(check bool)
         (Printf.sprintf "q=%.2f: estimate %d within 2x of exact %d" q est exact)
         true
         (est <= (2 * exact) + 2
          && exact <= (2 * est) + 2
          && est <= Histogram.max_value h))
    [ 0.50; 0.95; 0.99; 1.0 ]

let test_single_bucket_corner () =
  let h = Histogram.create "t" in
  for _ = 1 to 100 do
    Histogram.observe h 5
  done;
  List.iter
    (fun q ->
       let v = Histogram.quantile_interp h q in
       Alcotest.(check bool)
         (Printf.sprintf "interp q=%.2f stays in the only bucket" q)
         true
         (v >= 4 && v <= 5))
    [ 0.01; 0.50; 0.99; 1.0 ]

let test_overflow_bucket_corner () =
  let h = Histogram.create "t" in
  let huge = (1 lsl 61) + 5 in
  Histogram.observe h 3;
  Histogram.observe h huge;
  (* the top bucket's 2^62 upper bound wraps negative; both estimators
     must fall back to the observed max *)
  Alcotest.(check int) "edge quantile reports the max" huge (Histogram.quantile h 1.0);
  Alcotest.(check int) "interp caps at the max" huge (Histogram.quantile_interp h 1.0);
  Alcotest.(check bool) "median stays in the low bucket" true
    (Histogram.quantile_interp h 0.5 <= 4)

let test_exact_percentile_corners () =
  Alcotest.(check int) "empty" 0 (Latency.exact_percentile [||] 0.5);
  Alcotest.(check int) "single sample" 7 (Latency.exact_percentile [| 7 |] 0.99);
  let s = [| 5; 1; 9; 3 |] in
  Alcotest.(check int) "p100 is the max" 9 (Latency.exact_percentile s 1.0);
  Alcotest.(check int) "p25 is rank 1" 1 (Latency.exact_percentile s 0.25)

let test_summary_fields () =
  let h = Histogram.create "t" in
  List.iter (Histogram.observe h) [ 10; 20; 30; 40 ];
  let s = Latency.summary h in
  Alcotest.(check int) "count" 4 s.Latency.count;
  Alcotest.(check int) "max" 40 s.Latency.max;
  Alcotest.(check bool) "percentiles ordered" true
    (s.Latency.p50 <= s.Latency.p95 && s.Latency.p95 <= s.Latency.p99
     && s.Latency.p99 <= s.Latency.max)

(* ---------- the service scheduler ---------- *)

let cell ?(app = Drivers.Http) ?(scheme = "sgxbounds") ?(env = Config.Inside_enclave)
    ?(workers = 2) ?(queue_cap = 64) ?(requests = 120) ?(process = Loadgen.Poisson)
    ?(seed = 1) rate =
  {
    Experiment.app;
    scheme;
    env;
    cfg = { Service.workers; queue_cap; requests; rate_rps = rate; process; seed };
  }

let stats_exn name (p : Experiment.point) =
  match p.Experiment.pt_outcome with
  | Ok st -> st
  | Error e -> Alcotest.failf "%s: crashed: %s" name e

let http_capacity =
  lazy
    (match
       Experiment.capacity ~app:Drivers.Http ~scheme:"sgxbounds"
         ~env:Config.Inside_enclave ~workers:2 ~requests:100 ~seed:1
     with
     | Some cap when cap > 0. -> cap
     | Some _ | None -> Alcotest.fail "capacity probe failed")

let test_capacity_positive () = ignore (Lazy.force http_capacity : float)

let tsv_line p = Tsv.line Experiment.tsv_schema (Experiment.tsv_row p)

let test_run_deterministic () =
  let c = cell 40_000. in
  let l1 = tsv_line (Experiment.run_cell c) in
  let l2 = tsv_line (Experiment.run_cell c) in
  Alcotest.(check string) "identical reruns" l1 l2

let test_engines_agree () =
  (* whole cells (machine creation included) under each memory engine *)
  let c = cell ~app:Drivers.Memcached ~requests:80 60_000. in
  let line kind =
    Fastpath.with_kind kind (fun () -> tsv_line (Experiment.run_cell c))
  in
  let fast = line Fastpath.Fast and naive = line Fastpath.Naive in
  Alcotest.(check string) "fast engine = naive engine" fast naive

let test_jobs_invariance () =
  let cells =
    [ cell 30_000.; cell ~scheme:"asan" 30_000.; cell ~app:Drivers.Sqlite 30_000. ]
  in
  let lines jobs = List.map tsv_line (Experiment.sweep ~jobs cells) in
  Alcotest.(check (list string)) "one domain = two domains" (lines 1) (lines 2)

let test_underload_completes_everything () =
  let cap = Lazy.force http_capacity in
  let st =
    stats_exn "underload" (Experiment.run_cell (cell ~requests:200 (0.2 *. cap)))
  in
  Alcotest.(check int) "all offered requests completed" st.Service.offered
    st.Service.completed;
  Alcotest.(check int) "nothing shed" 0 st.Service.dropped;
  Alcotest.(check bool) "throughput positive" true (Service.throughput_rps st > 0.)

let test_overload_sheds_never_wedges () =
  let cap = Lazy.force http_capacity in
  let c =
    cell ~queue_cap:2 ~process:(Loadgen.Burst 16) ~requests:300 (20. *. cap)
  in
  let st = stats_exn "overload" (Experiment.run_cell c) in
  Alcotest.(check int) "every request completed or shed" st.Service.offered
    (st.Service.completed + st.Service.dropped);
  Alcotest.(check bool) "overload sheds" true (st.Service.dropped > 0);
  Alcotest.(check bool) "accept queue stays bounded" true (st.Service.max_queue <= 2);
  Alcotest.(check bool) "drop ratio reflects the sheds" true
    (Service.drop_ratio st > 0. && Service.drop_ratio st < 1.)

let test_latency_grows_with_load () =
  let cap = Lazy.force http_capacity in
  let summary rate =
    Service.summary (stats_exn "load" (Experiment.run_cell (cell ~requests:200 rate)))
  in
  let low = summary (0.15 *. cap) and high = summary (1.2 *. cap) in
  Alcotest.(check bool) "queueing inflates the mean" true
    (low.Latency.mean < high.Latency.mean);
  Alcotest.(check bool) "and the tail" true (low.Latency.p95 <= high.Latency.p95)

let test_all_apps_and_schemes_serve () =
  List.iter
    (fun app ->
       List.iter
         (fun scheme ->
            let name = Drivers.name app ^ "/" ^ scheme in
            let c = cell ~app ~scheme ~requests:40 200_000. in
            let st = stats_exn name (Experiment.run_cell c) in
            (* queue_cap 64 > 40 requests: nothing can be shed *)
            Alcotest.(check int) (name ^ ": all served") st.Service.offered
              st.Service.completed)
         [ "native"; "sgxbounds"; "asan"; "mpx" ])
    Drivers.all

let test_config_validation () =
  let m = ms () in
  (match Service.run m { Service.default with Service.workers = 0 } (fun ~worker:_ -> ()) with
   | _ -> Alcotest.fail "workers=0 accepted"
   | exception Invalid_argument _ -> ());
  match Service.run m { Service.default with Service.queue_cap = 0 } (fun ~worker:_ -> ()) with
  | _ -> Alcotest.fail "queue_cap=0 accepted"
  | exception Invalid_argument _ -> ()

let test_driver_names () =
  Alcotest.(check bool) "nginx aliases http" true
    (Drivers.of_string "nginx" = Some Drivers.Http);
  Alcotest.(check bool) "unknown app rejected" true (Drivers.of_string "redis" = None);
  List.iter
    (fun a ->
       Alcotest.(check bool) "app name roundtrip" true
         (Drivers.of_string (Drivers.name a) = Some a))
    Drivers.all

let test_tsv_format () =
  let p = Experiment.run_cell (cell ~requests:30 50_000.) in
  let line = tsv_line p in
  let ncols s = List.length (String.split_on_char '\t' s) in
  Alcotest.(check int) "line matches the header" (ncols (Tsv.header Experiment.tsv_schema))
    (ncols line);
  Alcotest.(check bool) "status column says ok" true
    (match List.rev (String.split_on_char '\t' line) with
     | "ok" :: _ -> true
     | _ -> false)

(* ---------- properties ---------- *)

let prop_arrivals_monotone =
  QCheck.Test.make ~name:"loadgen: schedules are sorted and nonnegative" ~count:60
    QCheck.(triple (int_bound 3) small_nat (int_range 1 200))
    (fun (p, seed, n) ->
       let process =
         match p with
         | 0 -> Loadgen.Fixed
         | 1 -> Loadgen.Poisson
         | 2 -> Loadgen.Burst 4
         | _ -> Loadgen.Burst 1
       in
       let rng = Rng.create seed in
       let a = Loadgen.arrivals ~rng ~process ~rate_rps:250_000. ~n in
       let ok = ref true in
       Array.iteri (fun i v -> if v < 0 || (i > 0 && v < a.(i - 1)) then ok := false) a;
       !ok)

let prop_interp_shares_exact_bucket =
  QCheck.Test.make ~name:"latency: interpolated quantile tracks the exact rank"
    ~count:60
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_bound 1_000_000)) (int_bound 100))
    (fun (l, qpct) ->
       let q = float_of_int qpct /. 100. in
       let samples = Array.of_list l in
       let h = Histogram.create "p" in
       Array.iter (Histogram.observe h) samples;
       let exact = Latency.exact_percentile samples q in
       let est = Histogram.quantile_interp h q in
       est <= (2 * exact) + 2 && exact <= (2 * est) + 2
       && est <= Histogram.max_value h)

let suite =
  [
    Alcotest.test_case "loadgen: arrivals sorted and nonnegative" `Quick
      test_arrivals_sorted_nonneg;
    Alcotest.test_case "loadgen: every process offers the mean rate" `Quick
      test_mean_rate;
    Alcotest.test_case "loadgen: burst bunches, fixed paces" `Quick test_burst_bunches;
    Alcotest.test_case "loadgen: invalid arguments rejected" `Quick
      test_arrivals_invalid_args;
    Alcotest.test_case "loadgen: process names roundtrip" `Quick
      test_process_names_roundtrip;
    Alcotest.test_case "latency: interp tracks the exact reference" `Quick
      test_interp_tracks_exact;
    Alcotest.test_case "latency: single-bucket corner" `Quick test_single_bucket_corner;
    Alcotest.test_case "latency: overflow-bucket corner" `Quick
      test_overflow_bucket_corner;
    Alcotest.test_case "latency: exact-percentile corners" `Quick
      test_exact_percentile_corners;
    Alcotest.test_case "latency: summary fields ordered" `Quick test_summary_fields;
    Alcotest.test_case "service: capacity probe positive" `Quick test_capacity_positive;
    Alcotest.test_case "service: reruns are bit-identical" `Quick test_run_deterministic;
    Alcotest.test_case "service: fast and naive engines agree" `Quick test_engines_agree;
    Alcotest.test_case "service: results independent of --jobs" `Quick
      test_jobs_invariance;
    Alcotest.test_case "service: underload completes everything" `Quick
      test_underload_completes_everything;
    Alcotest.test_case "service: overload sheds, never wedges" `Quick
      test_overload_sheds_never_wedges;
    Alcotest.test_case "service: latency grows with offered load" `Quick
      test_latency_grows_with_load;
    Alcotest.test_case "service: all apps and schemes serve" `Quick
      test_all_apps_and_schemes_serve;
    Alcotest.test_case "service: config validation" `Quick test_config_validation;
    Alcotest.test_case "service: driver names" `Quick test_driver_names;
    Alcotest.test_case "service: tsv line matches header" `Quick test_tsv_format;
    qtest prop_arrivals_monotone;
    qtest prop_interp_shares_exact_bucket;
  ]
