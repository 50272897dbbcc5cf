(** Fleet failover pyramid: kill-and-restart determinism across all
    three memory engines and any [--jobs], balancer shedding under
    overload, the consistent-hash ring's golden assignments and bounded
    remap, and the per-instance histogram merge against the pooled exact
    reference. *)

module Fleet = Sb_service.Fleet
module Ycsb = Sb_service.Ycsb
module Latency = Sb_service.Latency
module Loadgen = Sb_service.Loadgen
module Spans = Sb_service.Spans
module Histogram = Sb_telemetry.Metrics.Histogram
module Fastpath = Sb_machine.Fastpath
module Rng = Sb_machine.Rng

(* A small but busy fleet with two mid-run kills: enough load that the
   kills land while requests are queued and in flight. *)
let failover_cfg =
  {
    Fleet.default with
    Fleet.instances = 3;
    workers = 1;
    queue_cap = 32;
    requests = 400;
    rate_rps = 2_500_000.;
    seed = 11;
    workload = Ycsb.B;
    records = 512;
    kills = [ (0, 100_000); (2, 200_000) ];
  }

let run_ok ?spans cfg =
  match Fleet.run ?spans cfg with
  | Ok st -> st
  | Error msg -> Alcotest.failf "fleet run crashed: %s" msg

(* ---------- failover determinism ---------- *)

let test_engines_agree () =
  let fp kind = Fastpath.with_kind kind (fun () -> Fleet.fingerprint (run_ok failover_cfg)) in
  Alcotest.(check string) "fast agrees with naive" (fp Fastpath.Naive) (fp Fastpath.Fast)

let test_jobs_invariant () =
  (* the same two configs swept on one domain and on two *)
  let cfgs = [ failover_cfg; { failover_cfg with Fleet.policy = Fleet.Least_loaded } ] in
  let fp outcome =
    match outcome with
    | Ok st -> Fleet.fingerprint st
    | Error msg -> "error: " ^ msg
  in
  let one = List.map fp (Fleet.sweep ~jobs:1 cfgs) in
  let two = List.map fp (Fleet.sweep ~jobs:2 cfgs) in
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "cell %d" i) a b)
    (List.combine one two)

let test_failover_accounting () =
  let st = run_ok ~spans:4 failover_cfg in
  Alcotest.(check int) "offered = completed + dropped + lost" st.Fleet.offered
    (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost);
  Alcotest.(check int) "both kills restarted an instance" 2 st.Fleet.restarts;
  Alcotest.(check bool) "the kills disturbed the run" true
    (st.Fleet.lost + st.Fleet.failed_over > 0);
  Alcotest.(check int) "merged latency count = completed" st.Fleet.completed
    (Histogram.count st.Fleet.latency);
  Array.iter
    (fun (i : Fleet.inst_stats) ->
       Alcotest.(check int)
         (Printf.sprintf "instance %d: spans recorded = completed" i.Fleet.i_idx)
         i.Fleet.i_completed
         (match i.Fleet.i_spans with Some log -> Spans.recorded log | None -> -1))
    st.Fleet.per_instance;
  let inst_sum f = Array.fold_left (fun a i -> a + f i) 0 st.Fleet.per_instance in
  Alcotest.(check int) "per-instance completions add up" st.Fleet.completed
    (inst_sum (fun i -> i.Fleet.i_completed));
  Alcotest.(check int) "per-instance losses add up" st.Fleet.lost
    (inst_sum (fun i -> i.Fleet.i_lost))

(* ---------- overload sheds at the balancer ---------- *)

let test_overload_sheds () =
  let cfg =
    {
      Fleet.default with
      Fleet.instances = 2;
      workers = 1;
      queue_cap = 8;
      requests = 300;
      rate_rps = 5_000_000.;
      process = Loadgen.Fixed;
      seed = 3;
      records = 256;
      policy = Fleet.Round_robin;
    }
  in
  let st = run_ok cfg in
  Alcotest.(check bool) "overload sheds" true (st.Fleet.dropped > 0);
  Alcotest.(check int) "accounting closes" st.Fleet.offered
    (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost);
  Array.iter
    (fun (i : Fleet.inst_stats) ->
       Alcotest.(check bool)
         (Printf.sprintf "instance %d 's queue stays bounded" i.Fleet.i_idx)
         true
         (i.Fleet.i_max_queue <= cfg.Fleet.queue_cap))
    st.Fleet.per_instance;
  Alcotest.(check bool) "server kept serving while shedding" true
    (st.Fleet.completed > 0)

(* ---------- consistent-hash ring ---------- *)

let test_ring_golden () =
  (* key->shard is a pure function: pinned assignments for 4 instances *)
  let r4 = Fleet.Ring.make 4 in
  List.iter
    (fun (k, want) ->
       Alcotest.(check int) (Printf.sprintf "owner of key %d" k) want
         (Fleet.Ring.owner r4 k))
    [ (0, 2); (1, 2); (2, 2); (3, 2); (42, 0); (1000, 1); (9999, 2) ];
  (* and stable across independent ring constructions *)
  let r4' = Fleet.Ring.make 4 in
  for k = 0 to 999 do
    Alcotest.(check int) "stable across runs" (Fleet.Ring.owner r4 k)
      (Fleet.Ring.owner r4' k)
  done

let test_ring_remap_bounded () =
  let nkeys = 10_000 in
  let r4 = Fleet.Ring.make 4 and r5 = Fleet.Ring.make 5 in
  let moved = ref 0 in
  for k = 0 to nkeys - 1 do
    let a = Fleet.Ring.owner r4 k and b = Fleet.Ring.owner r5 k in
    if a <> b then begin
      incr moved;
      (* consistent hashing: a key only ever moves TO the new instance *)
      Alcotest.(check int) (Printf.sprintf "key %d moved to the new instance" k) 4 b
    end
  done;
  let frac = float_of_int !moved /. float_of_int nkeys in
  (* expected ~1/5 of the key space; 64 vnodes keeps it near that *)
  Alcotest.(check bool)
    (Printf.sprintf "remapped fraction %.3f within [0.10, 0.30]" frac)
    true
    (frac >= 0.10 && frac <= 0.30)

let test_ring_alive_walk () =
  let r4 = Fleet.Ring.make 4 in
  (* with everyone alive, the walk is the owner *)
  Alcotest.(check bool) "alive walk = owner" true
    (Fleet.Ring.owner_alive r4 ~alive:(fun _ -> true) 42 = Some (Fleet.Ring.owner r4 42));
  (* with the owner dead, keys land on a different live instance *)
  let dead = Fleet.Ring.owner r4 42 in
  (match Fleet.Ring.owner_alive r4 ~alive:(fun i -> i <> dead) 42 with
   | Some o -> Alcotest.(check bool) "fails over to a live instance" true (o <> dead)
   | None -> Alcotest.fail "no live instance found");
  Alcotest.(check bool) "all dead gives None" true
    (Fleet.Ring.owner_alive r4 ~alive:(fun _ -> false) 42 = None)

(* ---------- Latency.merge vs the pooled exact reference ---------- *)

let test_merge_matches_pooled_exact () =
  let rng = Rng.create 17 in
  let shards =
    List.init 4 (fun i ->
        (Histogram.create (Printf.sprintf "shard%d" i),
         Array.init (200 + (i * 57)) (fun _ -> Rng.int rng 2_000_000)))
  in
  List.iter (fun (h, samples) -> Array.iter (Histogram.observe h) samples) shards;
  let merged = Latency.merge "merged" (List.map fst shards) in
  let pooled = Array.concat (List.map snd shards) in
  Alcotest.(check int) "merged count = pooled count" (Array.length pooled)
    (Histogram.count merged);
  Alcotest.(check int) "merged sum = pooled sum"
    (Array.fold_left ( + ) 0 pooled)
    (Histogram.sum merged);
  Alcotest.(check int) "merged max = pooled max"
    (Array.fold_left max 0 pooled)
    (Histogram.max_value merged);
  (* the interp-vs-exact bound carries over to the pooled reference *)
  List.iter
    (fun q ->
       let exact = Latency.exact_percentile pooled q in
       let est = Histogram.quantile_interp merged q in
       Alcotest.(check bool)
         (Printf.sprintf "q=%.2f: merged estimate %d within 2x of pooled exact %d" q
            est exact)
         true
         (est <= (2 * exact) + 2
          && exact <= (2 * est) + 2
          && est <= Histogram.max_value merged))
    [ 0.50; 0.95; 0.99; 1.0 ]

(* ---------- policies ---------- *)

let test_policy_parsing () =
  List.iter
    (fun n ->
       match Fleet.policy_of_string n with
       | Some p -> Alcotest.(check string) "roundtrip" n (Fleet.policy_name p)
       | None -> Alcotest.failf "listed policy %s not parsed" n)
    Fleet.policy_names;
  Alcotest.(check bool) "unknown rejected" true (Fleet.policy_of_string "random" = None)

let test_policies_all_complete () =
  List.iter
    (fun policy ->
       let cfg =
         { failover_cfg with Fleet.policy; kills = []; affinity = policy <> Fleet.Hash }
       in
       let st = run_ok cfg in
       Alcotest.(check int)
         (Printf.sprintf "policy %s: everything accounted" (Fleet.policy_name policy))
         st.Fleet.offered
         (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost))
    [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Hash ]

let suite =
  [
    Alcotest.test_case "failover: engines agree bit-for-bit" `Quick test_engines_agree;
    Alcotest.test_case "failover: --jobs 1 = --jobs 2" `Quick test_jobs_invariant;
    Alcotest.test_case "failover: accounting and spans" `Quick test_failover_accounting;
    Alcotest.test_case "overload sheds at the balancer" `Quick test_overload_sheds;
    Alcotest.test_case "ring: golden key->shard assignments" `Quick test_ring_golden;
    Alcotest.test_case "ring: add-instance remap is bounded" `Quick test_ring_remap_bounded;
    Alcotest.test_case "ring: alive walk fails over" `Quick test_ring_alive_walk;
    Alcotest.test_case "merge matches pooled exact percentiles" `Quick
      test_merge_matches_pooled_exact;
    Alcotest.test_case "policy parsing roundtrips" `Quick test_policy_parsing;
    Alcotest.test_case "all policies close the accounting" `Quick
      test_policies_all_complete;
  ]
