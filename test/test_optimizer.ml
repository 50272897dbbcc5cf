(** The proof-carrying bounds-check optimizer: plan determinism (across
    engines and across [--jobs]), certificate verification, runtime
    rejection of tampered plans, fuzz-oracle soundness of optimized
    replays, and the SARIF 2.1.0 writer. *)

module Optimizer = Sb_analysis.Optimizer
module Optimized = Sb_protection.Optimized
module Sarif = Sb_analysis.Sarif
module Finding = Sb_analysis.Finding
module Fastpath = Sb_machine.Fastpath
module Registry = Sb_workloads.Registry
module Json = Sb_telemetry.Json

(* ---------- plan determinism ---------- *)

let test_plan_deterministic_across_engines () =
  let w = Registry.find "pca" in
  let plan kind =
    Fastpath.with_kind kind (fun () -> Optimizer.plan_of_cell ~scheme:"sgxbounds" w)
  in
  let naive = plan Fastpath.Naive in
  let fast = plan Fastpath.Fast in
  Alcotest.(check bool) "some sites certified" true
    (Array.length naive.Optimized.p_sites > 0);
  Alcotest.(check bool) "naive = fast" true (naive = fast)

let test_sweep_jobs_invariant () =
  let ws = [ Registry.find "kmeans"; Registry.find "pca" ] in
  let rows jobs = Optimizer.sweep ~jobs ~schemes:[ "sgxbounds" ] ws in
  let r1 = rows 1 and r2 = rows 2 in
  Alcotest.(check string) "TSV identical under --jobs 1 vs 2"
    (Optimizer.tsv_of_rows r1) (Optimizer.tsv_of_rows r2);
  Alcotest.(check bool) "rows structurally equal" true (r1 = r2);
  List.iter
    (fun r ->
       Alcotest.(check bool) (r.Optimizer.r_workload ^ " sound") true
         r.Optimizer.r_sound)
    r1

(* ---------- certificates: elision rate, verification, tampering ---------- *)

let test_optimized_cell_sound_and_effective () =
  let r = Optimizer.optimize_cell ~scheme:"sgxbounds" (Registry.find "kmeans") in
  Alcotest.(check bool) "sound" true r.Optimizer.r_sound;
  Alcotest.(check int) "no certificate failures" 0 r.Optimizer.r_certs_bad;
  Alcotest.(check int) "no runtime rejections" 0 r.Optimizer.r_fallbacks;
  Alcotest.(check bool) "elides a material fraction of checks" true
    (r.Optimizer.r_removed_pct >= 20.0);
  Alcotest.(check bool) "checks never increase" true
    (r.Optimizer.r_checks_after <= r.Optimizer.r_checks_before);
  Alcotest.(check bool) "cycles never increase" true
    (r.Optimizer.r_cycles_after <= r.Optimizer.r_cycles_before)

let test_audit_replay_clean () =
  (* satellite: plan replay composed with Audit.wrap reports zero findings *)
  let w = Registry.find "matrixmul" in
  let plan = Optimizer.plan_of_cell ~scheme:"sgxbounds" w in
  let findings, fallbacks = Optimizer.verify_replay ~scheme:"sgxbounds" w plan in
  Alcotest.(check int) "audit findings" 0 findings;
  Alcotest.(check int) "runtime rejections" 0 fallbacks

let test_tampered_plan_rejected () =
  let w = Registry.find "pca" in
  let plan = Optimizer.plan_of_cell ~scheme:"sgxbounds" w in
  let tampered =
    {
      plan with
      Optimized.p_sites =
        Array.map
          (fun (s : Optimized.site) ->
             { s with Optimized.site_hi = s.Optimized.site_hi + 4096 })
          plan.Optimized.p_sites;
    }
  in
  (* the static verifier flags it... *)
  let _r, stream, _n = Optimizer.record_cell ~scheme:"sgxbounds" w in
  Alcotest.(check bool) "static verifier flags widened extents" true
    (Optimizer.verify_plan tampered stream <> []);
  (* ...and the runtime refuses to elide against it, keeping the verdict *)
  let findings, _ = Optimizer.verify_replay ~scheme:"sgxbounds" w tampered in
  Alcotest.(check int) "tampered replay still audits clean" 0 findings

(* ---------- fuzz-oracle soundness (two engines, detection contracts) ---------- *)

let test_fuzz_soundness () =
  let rep = Optimizer.fuzz_soundness ~seed:11 ~iters:16 () in
  Alcotest.(check (list string)) "no soundness failures" [] rep.Optimizer.fz_failures;
  Alcotest.(check bool) "optimized replays actually elide" true
    (rep.Optimizer.fz_elided > 0);
  Alcotest.(check int) "every cell exercised" (16 * 2) rep.Optimizer.fz_cells

(* ---------- SARIF golden ---------- *)

let test_sarif_golden () =
  let results =
    [
      Sarif.of_finding ~workload:"kmeans" ~scheme:"sgxbounds"
        {
          Finding.kind = Finding.Unchecked_uncovered;
          site = "store_unchecked";
          addr = 0x5018;
          obj = 0x5000;
          extent = 8;
          thread = 0;
          detail = "no covering live check";
        };
      Sarif.of_cert_failure ~workload:"pca" ~scheme:"sgxbounds"
        "site 0: extent [0,4288) exceeds object 0 (192 bytes)";
    ]
  in
  let expected =
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\n\"version\":\"2.1.0\", \"runs\":[{\"tool\":{\"driver\":{\"name\":\"sgxbounds-analyze\",\n\"version\":\"1.0.0\", \"informationUri\":\"https://github.com/tudinfse/sgxbounds\",\n\"rules\":[{\"id\":\"unchecked-uncovered\",\n\"shortDescription\":{\"text\":\"unchecked-uncovered\"}}, {\"id\":\"check-oob\",\n\"shortDescription\":{\"text\":\"check-oob\"}}, {\"id\":\"safe-oob\",\n\"shortDescription\":{\"text\":\"safe-oob\"}}, {\"id\":\"libc-mismatch\",\n\"shortDescription\":{\"text\":\"libc-mismatch\"}}, {\"id\":\"libc-unchecked\",\n\"shortDescription\":{\"text\":\"libc-unchecked\"}}, {\"id\":\"data-race\",\n\"shortDescription\":{\"text\":\"data-race\"}}, {\"id\":\"meta-race\",\n\"shortDescription\":{\"text\":\"meta-race\"}}, {\"id\":\"tainted-deref\",\n\"shortDescription\":{\"text\":\"tainted-deref\"}}, {\"id\":\"tainted-extent\",\n\"shortDescription\":{\"text\":\"tainted-extent\"}}, {\"id\":\"tainted-libc\",\n\"shortDescription\":{\"text\":\"tainted-libc\"}}, {\"id\":\"double-fetch\",\n\"shortDescription\":{\"text\":\"double-fetch\"}}, {\"id\":\"phase-disorder\",\n\"shortDescription\":{\"text\":\"phase-disorder\"}}, {\"id\":\"optimizer-cert\",\n\"shortDescription\":{\"text\":\"optimizer-cert\"}}]}},\n\"results\":[{\"ruleId\":\"unchecked-uncovered\", \"level\":\"error\",\n\"message\":{\"text\":\"[unchecked-uncovered] store_unchecked: 8 byte(s) at 0x5018 (object 0x5000, thread 0): no covering live check\"},\n\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"sim://kmeans/sgxbounds\"}},\n\"logicalLocations\":[{\"fullyQualifiedName\":\"sim://kmeans/sgxbounds\"}]}]},\n{\"ruleId\":\"optimizer-cert\", \"level\":\"error\",\n\"message\":{\"text\":\"site 0: extent [0,4288) exceeds object 0 (192 bytes)\"},\n\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"sim://pca/sgxbounds\"}},\n\"logicalLocations\":[{\"fullyQualifiedName\":\"sim://pca/sgxbounds\"}]}]}]}]}"
  in
  Alcotest.(check string) "SARIF document" expected (Sarif.to_string results);
  (* and it parses back as JSON with the pinned version *)
  match Json.parse (Sarif.to_string results) with
  | Error e -> Alcotest.failf "SARIF is not valid JSON: %s" e
  | Ok j ->
    Alcotest.(check bool) "version 2.1.0" true
      (Json.member "version" j = Some (Json.Str "2.1.0"))

let suite =
  [
    Alcotest.test_case "plan deterministic across engines" `Quick
      test_plan_deterministic_across_engines;
    Alcotest.test_case "sweep invariant under --jobs" `Quick test_sweep_jobs_invariant;
    Alcotest.test_case "optimized cell sound and effective" `Quick
      test_optimized_cell_sound_and_effective;
    Alcotest.test_case "audit replay of the plan is clean" `Quick
      test_audit_replay_clean;
    Alcotest.test_case "tampered plan rejected, verdict kept" `Quick
      test_tampered_plan_rejected;
    Alcotest.test_case "fuzz oracle soundness with elision active" `Quick
      test_fuzz_soundness;
    Alcotest.test_case "sarif golden" `Quick test_sarif_golden;
  ]
