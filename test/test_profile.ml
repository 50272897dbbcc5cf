(** The observability layer: site-attributed profiler (tree nesting,
    unwind safety, collapsed-stack golden, differential sign), request
    span reservoir determinism, tracing/profiling stats-invariance
    (zero simulated cost when observing), and the deterministic
    perf-score gate. *)

module Profile = Sb_telemetry.Profile
module Json = Sb_telemetry.Json
module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Service = Sb_service.Service
module Spans = Sb_service.Spans
module Experiment = Sb_service.Experiment
module Drivers = Sb_service.Drivers
module Score = Sb_service.Score

(* ---------- profiler core ---------- *)

(* A small two-bucket profile used by several tests:
     root: 7 cycles (bucket y), a: 5 (x) + 2 (x), a;b: 3 (y) *)
let small_profile () =
  let p = Profile.create ~buckets:[| "x"; "y" |] () in
  let a = Profile.intern p "a" in
  let b = Profile.intern p "b" in
  Profile.enter p a;
  Profile.charge p 0 5;
  Profile.enter p b;
  Profile.charge p 1 3;
  Profile.exit p;
  Profile.charge p 0 2;
  Profile.exit p;
  Profile.charge p 1 7;
  p

let test_tree_nesting () =
  let p = small_profile () in
  let rows = Profile.rows p in
  let paths = List.map (fun r -> String.concat ";" r.Profile.r_path) rows in
  Alcotest.(check (list string)) "DFS rows, site-id order" [ ""; "a"; "a;b" ] paths;
  let row path =
    List.find (fun r -> String.concat ";" r.Profile.r_path = path) rows
  in
  Alcotest.(check int) "root self" 7 (row "").Profile.r_self;
  Alcotest.(check int) "a self" 7 (row "a").Profile.r_self;
  Alcotest.(check int) "a inclusive" 10 (row "a").Profile.r_incl;
  Alcotest.(check int) "a;b self" 3 (row "a;b").Profile.r_self;
  Alcotest.(check int) "a entered once" 1 (row "a").Profile.r_calls;
  Alcotest.(check int) "root inclusive = total" (Profile.total p)
    (row "").Profile.r_incl;
  Alcotest.(check int) "conservation: total = all charges" 17 (Profile.total p);
  (* per-bucket split survives aggregation *)
  Alcotest.(check int) "a bucket x" 7 (row "a").Profile.r_buckets.(0);
  Alcotest.(check int) "a;b bucket y" 3 (row "a;b").Profile.r_buckets.(1)

let test_unwind_safety () =
  let p = Profile.create ~buckets:[| "x" |] () in
  let a = Profile.intern p "a" in
  (* with_site pops even when the body raises *)
  (try Profile.with_site p a (fun () -> failwith "boom")
   with Failure _ -> ());
  Profile.charge p 0 4;
  (* popping at the root is ignored, not a crash or corruption *)
  Profile.exit p;
  Profile.exit p;
  Profile.charge p 0 6;
  let rows = Profile.rows p in
  let root = List.find (fun r -> r.Profile.r_path = []) rows in
  Alcotest.(check int) "all charges landed at the root" 10 root.Profile.r_self;
  let a_row = List.find (fun r -> r.Profile.r_path = [ "a" ]) rows in
  Alcotest.(check int) "raised site kept its call count" 1 a_row.Profile.r_calls;
  Alcotest.(check int) "raised site charged nothing" 0 a_row.Profile.r_self

let test_collapsed_golden () =
  let p = small_profile () in
  Alcotest.(check string) "folded stacks, exact bytes"
    "all 7\nall;a 7\nall;a;b 3\n"
    (Profile.to_collapsed p);
  Alcotest.(check string) "custom label prefixes every line"
    "kmeans/sgxbounds 7\nkmeans/sgxbounds;a 7\nkmeans/sgxbounds;a;b 3\n"
    (Profile.to_collapsed ~label:"kmeans/sgxbounds" p)

let test_diff_sign () =
  let mk charges =
    let p = Profile.create ~buckets:[| "x"; "y" |] () in
    List.iter
      (fun (site, bucket, cost) ->
         let id = Profile.intern p site in
         Profile.with_site p id (fun () -> Profile.charge p bucket cost))
      charges;
    p
  in
  (* B spends 15 more under "hot" (bucket 1), 4 less under "cold";
     "only_a" exists only in A *)
  let a = mk [ ("hot", 1, 10); ("cold", 0, 9); ("only_a", 0, 6) ] in
  let b = mk [ ("hot", 1, 25); ("cold", 0, 5) ] in
  let ds = Profile.diff a b in
  let d path = List.find (fun d -> d.Profile.d_path = [ path ]) ds in
  Alcotest.(check int) "hot delta = B - A" 15 (Profile.d_delta (d "hot"));
  Alcotest.(check int) "hot per-bucket delta" 15 (d "hot").Profile.d_buckets.(1);
  Alcotest.(check int) "cold delta negative" (-4) (Profile.d_delta (d "cold"));
  Alcotest.(check int) "A-only site counts as zero in B" (-6)
    (Profile.d_delta (d "only_a"));
  Alcotest.(check int) "A-only a_cycles" 6 (d "only_a").Profile.d_a;
  Alcotest.(check int) "A-only b_cycles" 0 (d "only_a").Profile.d_b;
  (* descending delta: B's extra cycles first *)
  let deltas = List.map Profile.d_delta ds in
  Alcotest.(check (list int)) "sorted by descending delta" [ 15; -4; -6 ] deltas;
  (* mismatched bucket sets are a caller bug, not a silent zero *)
  let c = Profile.create ~buckets:[| "x" |] () in
  Alcotest.check_raises "bucket mismatch rejected"
    (Invalid_argument "Profile.diff: bucket sets differ") (fun () ->
        ignore (Profile.diff a c))

(* ---------- observation is free: simulated metrics are invariant ----- *)

let test_profiled_run_stats_invariant () =
  let w = Registry.find "kmeans" in
  let plain = Harness.run_one ~n:256 ~scheme:"sgxbounds" w in
  let profiled, prof = Harness.run_profiled ~n:256 ~scheme:"sgxbounds" w in
  match (plain.Harness.outcome, profiled.Harness.outcome) with
  | Harness.Completed a, Harness.Completed b ->
    Alcotest.(check int) "cycles identical" a.Harness.cycles b.Harness.cycles;
    Alcotest.(check int) "instrs identical" a.Harness.instrs b.Harness.instrs;
    Alcotest.(check int) "accesses identical" a.Harness.mem_accesses
      b.Harness.mem_accesses;
    Alcotest.(check int) "llc misses identical" a.Harness.llc_misses
      b.Harness.llc_misses;
    (* conservation: every attributed cycle landed in some site *)
    Alcotest.(check int) "profiler total = attributed cycles"
      (b.Harness.compute_cycles
       + List.fold_left
           (fun acc (_, (cs : Memsys.class_stat)) -> acc + cs.Memsys.cycles)
           0 b.Harness.attribution)
      (Profile.total prof)
  | _ -> Alcotest.fail "kmeans crashed"

let serve_cell ~spans () =
  let cfg =
    {
      Service.workers = 2;
      queue_cap = 16;
      requests = 120;
      rate_rps = 150_000.;
      process = Sb_service.Loadgen.Poisson;
      seed = 3;
    }
  in
  Experiment.run_cell ?spans
    { Experiment.app = Drivers.Memcached; scheme = "sgxbounds";
      env = Config.Inside_enclave; cfg }

let test_traced_serve_stats_invariant () =
  let plain = serve_cell ~spans:None () in
  let traced = serve_cell ~spans:(Some 6) () in
  match (plain.Experiment.pt_outcome, traced.Experiment.pt_outcome) with
  | Ok a, Ok b ->
    Alcotest.(check int) "completed identical" a.Service.completed b.Service.completed;
    Alcotest.(check int) "dropped identical" a.Service.dropped b.Service.dropped;
    Alcotest.(check int) "elapsed identical" a.Service.elapsed b.Service.elapsed;
    let log = Option.get traced.Experiment.pt_spans in
    Alcotest.(check int) "every completion recorded" b.Service.completed
      (Spans.recorded log);
    let slow = Spans.slowest log in
    Alcotest.(check bool) "reservoir bounded" true (List.length slow <= 6);
    List.iter
      (fun sp ->
         Alcotest.(check int)
           (Printf.sprintf "span %d: sojourn = wait + exec" sp.Spans.sp_id)
           (Spans.sojourn sp)
           (Spans.queue_wait sp + Spans.exec sp))
      slow;
    (* the slowest exemplar is the histogram's max *)
    (match slow with
     | top :: _ ->
       Alcotest.(check int) "slowest span = latency max"
         (Sb_service.Latency.summary b.Service.latency).Sb_service.Latency.max
         (Spans.sojourn top)
     | [] -> Alcotest.fail "no spans retained")
  | _ -> Alcotest.fail "serve cell crashed"

(* ---------- span reservoir: deterministic slowest-K ---------- *)

let test_reservoir_determinism () =
  let feed () =
    let ms = Memsys.create (Config.default ()) in
    let log = Spans.create ~cap:3 ~workers:1 () in
    (* sojourns: 5 9 9 2 9 1 7 — cap 3 keeps the 9s, ties by id *)
    List.iteri
      (fun i sj ->
         Spans.begin_exec log ms ~worker:0;
         Spans.finish log ms ~id:i ~worker:0 ~arrival:0 ~dequeue:0 ~fin:sj)
      [ 5; 9; 9; 2; 9; 1; 7 ];
    Memsys.retire ms;
    log
  in
  let ids log = List.map (fun sp -> sp.Spans.sp_id) (Spans.slowest log) in
  let a = feed () and b = feed () in
  Alcotest.(check (list int)) "identical runs retain identical spans" (ids a) (ids b);
  (* total order (sojourn, id): the three 9s survive, highest id first *)
  Alcotest.(check (list int)) "slowest-K by (sojourn, id)" [ 4; 2; 1 ] (ids a);
  Alcotest.(check int) "recorded counts every offer" 7 (Spans.recorded a)

(* ---------- the perf-score gate ---------- *)

let score_baseline ?(engine = Score.engine ()) ?(smoke = false) kernels =
  Json.Obj
    [
      ("bench", Json.Str "score");
      ("engine", Json.Str engine);
      ("smoke", Json.Bool smoke);
      ( "kernels",
        Json.List
          (List.map
             (fun (name, score) ->
                Json.Obj [ ("kernel", Json.Str name); ("score", Json.Int score) ])
             kernels) );
    ]

let meas name score =
  {
    Score.m_kernel = name;
    m_accesses = 1000;
    m_instrs = 0;
    m_cycles = 0;
    m_alloc_words = score;
    m_score = score;
  }

let test_gate_verdicts () =
  let baseline = score_baseline [ ("k1", 100); ("k2", 100); ("gone", 50) ] in
  match
    Score.gate ~smoke:false ~tolerance_pct:25 ~baseline
      [ meas "k1" 125; meas "k2" 126; meas "new" 999 ]
  with
  | Error e -> Alcotest.fail e
  | Ok vs ->
    let v name = List.find (fun v -> v.Score.v_kernel = name) vs in
    Alcotest.(check bool) "at tolerance is ok" false (v "k1").Score.v_regressed;
    Alcotest.(check bool) "beyond tolerance regresses" true (v "k2").Score.v_regressed;
    Alcotest.(check int) "kernels only in one side are skipped" 2 (List.length vs)

let test_gate_mismatches () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "engine mismatch refused" true
    (is_error
       (Score.gate ~smoke:false ~tolerance_pct:25
          ~baseline:(score_baseline ~engine:"definitely-other" [ ("k", 1) ])
          [ meas "k" 1 ]));
  Alcotest.(check bool) "scale (smoke) mismatch refused" true
    (is_error
       (Score.gate ~smoke:true ~tolerance_pct:25
          ~baseline:(score_baseline ~smoke:false [ ("k", 1) ])
          [ meas "k" 1 ]));
  Alcotest.(check bool) "disjoint kernel sets refused" true
    (is_error
       (Score.gate ~smoke:false ~tolerance_pct:25
          ~baseline:(score_baseline [ ("other", 1) ])
          [ meas "k" 1 ]));
  Alcotest.(check bool) "same engine and scale accepted" true
    (not
       (is_error
          (Score.gate ~smoke:false ~tolerance_pct:25
             ~baseline:(score_baseline [ ("k", 1) ])
             [ meas "k" 1 ])))

let test_score_doc_trend () =
  let ms = [ meas "k1" 10; meas "k2" 20 ] in
  let d1 = Score.doc ~smoke:true ~label:"pr6" ~prev:None ms in
  (* re-emitting with the same label replaces, not appends: byte-identical *)
  let d2 = Score.doc ~smoke:true ~label:"pr6" ~prev:(Some d1) ms in
  Alcotest.(check string) "same label re-emission is byte-identical"
    (Json.to_string d1) (Json.to_string d2);
  (* a different label appends and keeps history *)
  let d3 = Score.doc ~smoke:true ~label:"pr7" ~prev:(Some d2) ms in
  (match Json.member "trend" d3 with
   | Some (Json.List l) ->
     let labels =
       List.filter_map
         (fun e ->
            match Json.member "label" e with Some (Json.Str s) -> Some s | _ -> None)
         l
     in
     Alcotest.(check (list string)) "trend keeps history, newest last"
       [ "pr6"; "pr7" ] labels
   | _ -> Alcotest.fail "no trend array");
  (* the document round-trips through the parser *)
  match Json.parse (Json.to_string d3) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("doc does not re-parse: " ^ e)

let test_score_measure_deterministic () =
  (* A pool-free synthetic kernel allocates exactly the same words every
     call, so [measure] must report identical numbers — the property
     behind the gate's +0.0% on unchanged code. (The real kernels are
     deterministic per *process*, pinned by check.sh's double-run cmp;
     in-process repeats see different machine-pool states.) *)
  let kernel =
    ( "synthetic",
      fun () ->
        let sink = ref [] in
        for i = 1 to 10_000 do
          sink := i :: !sink
        done;
        ignore (Sys.opaque_identity !sink);
        { Score.s_accesses = 10_000; s_instrs = 0; s_cycles = 0 } )
  in
  let m1 = Score.measure kernel in
  let m2 = Score.measure kernel in
  Alcotest.(check int) "alloc words identical" m1.Score.m_alloc_words
    m2.Score.m_alloc_words;
  Alcotest.(check int) "score identical" m1.Score.m_score m2.Score.m_score;
  Alcotest.(check bool)
    (Printf.sprintf "~3 words per cons counted (got %d)" m1.Score.m_alloc_words)
    true
    (m1.Score.m_alloc_words >= 29_000 && m1.Score.m_alloc_words <= 33_000);
  (* the perturbation hook inflates the measured allocation by its
     percentage — the deliberate slowdown check.sh proves the gate on *)
  Unix.putenv "SGXBOUNDS_SCORE_PERTURB" "100";
  let p = Score.measure kernel in
  Unix.putenv "SGXBOUNDS_SCORE_PERTURB" "";
  Alcotest.(check bool)
    (Printf.sprintf "perturb=100 roughly doubles the score (%d vs %d)"
       p.Score.m_score m1.Score.m_score)
    true
    (p.Score.m_score >= m1.Score.m_score * 18 / 10);
  (* real kernels do real simulated work and allocate *)
  let r = Score.measure (List.hd (Score.kernels ~smoke:true)) in
  Alcotest.(check bool) "real kernel does simulated work" true (r.Score.m_accesses > 0);
  Alcotest.(check bool) "real kernel allocates" true (r.Score.m_alloc_words > 0)

let suite =
  [
    Alcotest.test_case "tree nesting and conservation" `Quick test_tree_nesting;
    Alcotest.test_case "unwind safety" `Quick test_unwind_safety;
    Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
    Alcotest.test_case "differential sign and order" `Quick test_diff_sign;
    Alcotest.test_case "profiled run: stats invariant" `Quick
      test_profiled_run_stats_invariant;
    Alcotest.test_case "traced serve: stats invariant" `Quick
      test_traced_serve_stats_invariant;
    Alcotest.test_case "span reservoir determinism" `Quick test_reservoir_determinism;
    Alcotest.test_case "gate verdicts" `Quick test_gate_verdicts;
    Alcotest.test_case "gate mismatch refusals" `Quick test_gate_mismatches;
    Alcotest.test_case "score doc trend semantics" `Quick test_score_doc_trend;
    Alcotest.test_case "score measurement deterministic" `Quick
      test_score_measure_deterministic;
  ]
