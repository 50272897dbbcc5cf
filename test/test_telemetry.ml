(** The telemetry subsystem: metrics primitives, the event ring, JSON,
    exporters, and the cycle-attribution invariants of the memory
    system. *)

module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem
module Memsys = Sb_sgx.Memsys
module Telemetry = Sb_telemetry.Telemetry
module Metrics = Sb_telemetry.Metrics
module Events = Sb_telemetry.Events
module Json = Sb_telemetry.Json
module Sink = Sb_telemetry.Sink
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let prefixed ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---------- metrics primitives ---------- *)

let test_counter () =
  let c = Metrics.Counter.create "c" in
  Alcotest.(check int) "fresh" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:41 c;
  Alcotest.(check int) "incremented" 42 (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Metrics.Counter.value c)

let test_histogram () =
  let h = Metrics.Histogram.create "h" in
  List.iter (Metrics.Histogram.observe h) [ 1; 4; 4; 5; 150; 0 ];
  Alcotest.(check int) "count" 6 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 164 (Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 150 (Metrics.Histogram.max_value h);
  (* buckets: 0,1 -> [0,2); 4,4,5 -> [4,8); 150 -> [128,256) *)
  Alcotest.(check (list (triple int int int)))
    "buckets"
    [ (0, 2, 2); (4, 8, 3); (128, 256, 1) ]
    (Metrics.Histogram.nonzero_buckets h);
  Alcotest.(check bool) "p50 below 8" true (Metrics.Histogram.quantile h 0.5 <= 8);
  Alcotest.(check int) "p100 covers max" 256 (Metrics.Histogram.quantile h 1.0);
  Metrics.Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Metrics.Histogram.count h);
  Alcotest.(check (list (triple int int int))) "reset buckets" []
    (Metrics.Histogram.nonzero_buckets h)

let test_histogram_observe_n () =
  let state h =
    ( (Metrics.Histogram.count h, Metrics.Histogram.sum h, Metrics.Histogram.max_value h),
      Metrics.Histogram.nonzero_buckets h )
  in
  let bulk = Metrics.Histogram.create "bulk" and one = Metrics.Histogram.create "one" in
  List.iter
    (fun (v, n) ->
       Metrics.Histogram.observe_n bulk v n;
       for _ = 1 to n do
         Metrics.Histogram.observe one v
       done)
    [ (4, 7); (0, 3); (150, 1); (-2, 2); (4, 0); (1 lsl 40, 5); (9, 12) ];
  Alcotest.(check (pair (triple int int int) (list (triple int int int))))
    "observe_n v n = n x observe v" (state one) (state bulk)

let test_ring_bounded () =
  let r = Events.create ~capacity:4 in
  for i = 1 to 7 do
    Events.push r { Events.dummy with Events.ts = i; name = string_of_int i }
  done;
  Alcotest.(check int) "length capped" 4 (Events.length r);
  Alcotest.(check int) "dropped" 3 (Events.dropped r);
  Alcotest.(check (list string)) "keeps newest, oldest first" [ "4"; "5"; "6"; "7" ]
    (List.map (fun (e : Events.event) -> e.Events.name) (Events.to_list r));
  Events.clear r;
  Alcotest.(check int) "cleared" 0 (Events.length r)

let test_spans () =
  let tel = Telemetry.create () in
  let clock = ref 100 in
  Telemetry.set_clock tel (fun () -> !clock);
  Telemetry.with_span tel "outer" (fun () ->
      clock := 150;
      Telemetry.with_span tel "inner" (fun () -> clock := 175));
  (match Telemetry.events tel with
   | [ inner; outer ] ->
     Alcotest.(check string) "inner name" "inner" inner.Events.name;
     Alcotest.(check int) "inner start" 150 inner.Events.ts;
     (match (inner.Events.ph, outer.Events.ph) with
      | Events.Complete d_in, Events.Complete d_out ->
        Alcotest.(check int) "inner duration" 25 d_in;
        Alcotest.(check int) "outer duration" 75 d_out
      | _ -> Alcotest.fail "expected complete events");
     Alcotest.(check string) "outer name" "outer" outer.Events.name
   | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* span durations land in a histogram *)
  let hs = Telemetry.histograms tel in
  Alcotest.(check bool) "span histogram exists" true
    (List.mem_assoc "span:outer" hs && List.mem_assoc "span:inner" hs)

let test_disabled_hub_records_nothing () =
  let tel = Telemetry.disabled () in
  Telemetry.incr tel "x";
  Telemetry.observe tel "h" 5;
  Telemetry.event tel "ev";
  Telemetry.with_span tel "s" (fun () -> ());
  Alcotest.(check (list (pair string int))) "no counters" [] (Telemetry.counters tel);
  Alcotest.(check int) "no events" 0 (List.length (Telemetry.events tel));
  Alcotest.(check bool) "no histograms" true (Telemetry.histograms tel = [])

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.List [ Json.Str "x\"y\n"; Json.Bool true; Json.Null ]);
        ("c", Json.Obj [ ("nested", Json.Float 1.5) ]);
        ("d", Json.Int (-7));
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  List.iter
    (fun s ->
       match Json.parse s with
       | Ok _ -> Alcotest.failf "accepted malformed %S" s
       | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "12 34"; "" ]

(* ---------- memory-system attribution ---------- *)

let run_metrics ?n ~scheme name =
  let r = Harness.run_one ?n ~scheme (Registry.find name) in
  Harness.metrics_exn r

let test_attribution_sums_to_cycles () =
  (* single-threaded: every cycle belongs to exactly one bucket *)
  List.iter
    (fun scheme ->
       let m = run_metrics ~n:1024 ~scheme "kmeans" in
       Alcotest.(check int)
         (scheme ^ " attribution sums to elapsed cycles")
         m.Harness.cycles
         (Harness.attributed_total m))
    [ "native"; "sgxbounds"; "sgxbounds-noopt"; "asan"; "baggy" ]

let test_metadata_classes_by_scheme () =
  let cls m c =
    match List.assoc_opt c m.Harness.attribution with
    | Some (st : Memsys.class_stat) -> st.Memsys.cycles
    | None -> 0
  in
  let sgxb = run_metrics ~n:1024 ~scheme:"sgxbounds" "kmeans" in
  Alcotest.(check bool) "sgxbounds pays footer traffic" true (cls sgxb Memsys.Footer_meta > 0);
  Alcotest.(check int) "sgxbounds has no shadow" 0 (cls sgxb Memsys.Shadow);
  let asan = run_metrics ~n:1024 ~scheme:"asan" "kmeans" in
  Alcotest.(check bool) "asan pays shadow traffic" true (cls asan Memsys.Shadow > 0);
  Alcotest.(check int) "asan has no footers" 0 (cls asan Memsys.Footer_meta);
  let baggy = run_metrics ~n:1024 ~scheme:"baggy" "kmeans" in
  Alcotest.(check bool) "baggy pays size-table traffic" true (cls baggy Memsys.Bounds_table > 0);
  let native = run_metrics ~n:1024 ~scheme:"native" "kmeans" in
  List.iter
    (fun (c, (st : Memsys.class_stat)) ->
       if c <> Memsys.Data then
         Alcotest.(check int) ("native has no " ^ Memsys.class_name c) 0 st.Memsys.cycles)
    native.Harness.attribution

let test_memsys_reset_clears_everything () =
  let tel = Telemetry.create () in
  let ms = Memsys.create ~tel (Config.default ()) in
  (* Generate traffic over more pages than the EPC holds: faults, evictions
     and telemetry events all fire. *)
  let len = 2 * 1024 * 1024 in
  let base = Vmem.map (Memsys.vmem ms) ~len ~perm:Vmem.Read_write () in
  Telemetry.with_span tel "stress" (fun () ->
      Memsys.touch_range ms ~addr:base ~len;
      Memsys.touch_range ~cls:Memsys.Shadow ms ~addr:base ~len);
  Memsys.charge_alu ms 7;
  Alcotest.(check bool) "faults happened" true (Memsys.epc_faults ms > 0);
  Alcotest.(check bool) "evictions happened" true (Memsys.epc_evictions ms > 0);
  Alcotest.(check bool) "events recorded" true (List.length (Telemetry.events tel) > 0);
  Alcotest.(check bool) "attributed" true (Memsys.attributed_cycles ms > 0);
  let fault_names =
    List.sort_uniq compare
      (List.map (fun (e : Events.event) -> e.Events.name) (Telemetry.events tel))
  in
  Alcotest.(check bool) "fault and evict events present" true
    (List.mem "epc_fault" fault_names && List.mem "epc_evict" fault_names);
  Memsys.reset ms;
  let snap = Memsys.snapshot ms in
  Alcotest.(check int) "cycles zero" 0 snap.Memsys.cycles;
  Alcotest.(check int) "instrs zero" 0 snap.Memsys.instrs;
  Alcotest.(check int) "accesses zero" 0 snap.Memsys.mem_accesses;
  Alcotest.(check int) "llc zero" 0 snap.Memsys.llc_misses;
  Alcotest.(check int) "faults zero" 0 snap.Memsys.epc_faults;
  Alcotest.(check int) "evictions zero" 0 (Memsys.epc_evictions ms);
  Alcotest.(check int) "attributed zero" 0 (Memsys.attributed_cycles ms);
  List.iter
    (fun (c, (st : Memsys.class_stat)) ->
       Alcotest.(check int) (Memsys.class_name c ^ " accesses zero") 0 st.Memsys.accesses;
       Alcotest.(check int) (Memsys.class_name c ^ " cycles zero") 0 st.Memsys.cycles)
    (Memsys.attribution ms);
  List.iter
    (fun (lvl, (st : Sb_cache.Hierarchy.level_stats)) ->
       Alcotest.(check int) (lvl ^ " hits zero") 0 st.Sb_cache.Hierarchy.hits;
       Alcotest.(check int) (lvl ^ " misses zero") 0 st.Sb_cache.Hierarchy.misses)
    (Memsys.cache_stats ms);
  Alcotest.(check int) "event ring cleared" 0 (List.length (Telemetry.events tel));
  Alcotest.(check bool) "all counters zero" true
    (List.for_all (fun (_, v) -> v = 0) (Telemetry.counters tel));
  Alcotest.(check bool) "all histograms zero" true
    (List.for_all (fun (_, h) -> Metrics.Histogram.count h = 0) (Telemetry.histograms tel))

(* ---------- golden: the §4.4 ablation is visible in the counters ---------- *)

let test_ablation_check_counts () =
  let opt = run_metrics ~n:2048 ~scheme:"sgxbounds" "kmeans" in
  let noopt = run_metrics ~n:2048 ~scheme:"sgxbounds-noopt" "kmeans" in
  Alcotest.(check bool) "optimizations execute fewer checks" true
    (opt.Harness.checks_done < noopt.Harness.checks_done);
  Alcotest.(check bool) "optimizations elide checks" true (opt.Harness.checks_elided > 0);
  Alcotest.(check int) "noopt elides nothing" 0 noopt.Harness.checks_elided;
  Alcotest.(check bool) "optimizations hoist range checks" true
    (opt.Harness.checks_hoisted > 0);
  Alcotest.(check int) "noopt hoists nothing" 0 noopt.Harness.checks_hoisted;
  Alcotest.(check bool) "optimizations never slower" true
    (opt.Harness.cycles <= noopt.Harness.cycles);
  let footer (m : Harness.metrics) =
    match List.assoc_opt Memsys.Footer_meta m.Harness.attribution with
    | Some (st : Memsys.class_stat) -> st.Memsys.cycles
    | None -> 0
  in
  Alcotest.(check bool) "optimizations cut footer-metadata cycles" true
    (footer opt < footer noopt)

(* ---------- exporters ---------- *)

let test_chrome_trace_valid_and_complete () =
  let tel = Telemetry.create () in
  let r = Harness.run_one ~tel ~n:1024 ~scheme:"sgxbounds" (Registry.find "kmeans") in
  (match r.Harness.outcome with
   | Harness.Completed _ -> ()
   | Harness.Crashed msg -> Alcotest.failf "crashed: %s" msg);
  let trace = Json.to_string (Sink.chrome_trace (Sink.snapshot tel)) in
  match Json.parse trace with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok j ->
    let events = Option.bind (Json.member "traceEvents" j) Json.to_list in
    (match events with
     | None -> Alcotest.fail "no traceEvents array"
     | Some evs ->
       let named n e =
         match Option.bind (Json.member "name" e) Json.to_str with
         | Some s -> s = n
         | None -> false
       in
       Alcotest.(check bool) "has run phase span" true
         (List.exists (named "run:kmeans/sgxbounds") evs);
       Alcotest.(check bool) "has setup phase span" true
         (List.exists (named "setup:sgxbounds") evs);
       Alcotest.(check bool) "has epc fault events" true
         (List.exists (named "epc_fault") evs);
       Alcotest.(check bool) "all events have ts" true
         (List.for_all
            (fun e ->
               Json.member "ph" e = Some (Json.Str "M") || Json.member "ts" e <> None)
            evs))

let test_sink_table_and_csv () =
  let tel = Telemetry.create () in
  Telemetry.incr tel ~by:3 "widget_count";
  Telemetry.observe tel "lat" 12;
  let s = Sink.snapshot tel in
  let table = Fmt.str "%a" Sink.pp_table s in
  Alcotest.(check bool) "table mentions counter" true (contains ~sub:"widget_count" table);
  let csv = Sink.counters_csv s in
  Alcotest.(check bool) "csv has header" true (prefixed ~prefix:"metric,value\n" csv);
  Alcotest.(check bool) "csv has counter line" true (contains ~sub:"widget_count,3\n" csv);
  match Json.parse (Json.to_string (Sink.to_json s)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sink json invalid: %s" e

let test_maker_error_lists_schemes () =
  match (Harness.maker "notascheme" : Sb_sgx.Memsys.t -> Sb_protection.Scheme.t) with
  | (_ : Sb_sgx.Memsys.t -> Sb_protection.Scheme.t) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message lists valid schemes" true
      (contains ~sub:"sgxbounds-noopt" msg)

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram observe_n = repeated observe" `Quick
      test_histogram_observe_n;
    Alcotest.test_case "event ring is bounded" `Quick test_ring_bounded;
    Alcotest.test_case "spans nest and time" `Quick test_spans;
    Alcotest.test_case "disabled hub records nothing" `Quick test_disabled_hub_records_nothing;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick test_json_errors;
    Alcotest.test_case "attribution sums to cycles" `Quick test_attribution_sums_to_cycles;
    Alcotest.test_case "metadata classes per scheme" `Quick test_metadata_classes_by_scheme;
    Alcotest.test_case "Memsys.reset clears attribution + events" `Quick
      test_memsys_reset_clears_everything;
    Alcotest.test_case "ablation: fewer checks with optimizations" `Quick
      test_ablation_check_counts;
    Alcotest.test_case "chrome trace valid + has spans and faults" `Quick
      test_chrome_trace_valid_and_complete;
    Alcotest.test_case "table/csv/json sinks" `Quick test_sink_table_and_csv;
    Alcotest.test_case "maker error lists schemes" `Quick test_maker_error_lists_schemes;
  ]

(* --- quantile corners: single bucket, overflow bucket --- *)

let test_histogram_quantile_corners () =
  (* single occupied bucket: both estimators stay inside it *)
  let h = Metrics.Histogram.create "single" in
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 6
  done;
  Alcotest.(check int) "edge quantile rounds to the bucket top" 8
    (Metrics.Histogram.quantile h 0.5);
  List.iter
    (fun q ->
       let v = Metrics.Histogram.quantile_interp h q in
       Alcotest.(check bool)
         (Printf.sprintf "interp q=%.2f inside [4,6]" q)
         true (v >= 4 && v <= 6))
    [ 0.01; 0.50; 0.99; 1.0 ];
  (* overflow bucket: values past 2^61 have no representable bucket top,
     so estimators must report the observed max instead of a wrapped
     (negative) bound *)
  let o = Metrics.Histogram.create "overflow" in
  let huge = (1 lsl 61) + 5 in
  Metrics.Histogram.observe o 3;
  Metrics.Histogram.observe o huge;
  Alcotest.(check int) "edge quantile reports the observed max" huge
    (Metrics.Histogram.quantile o 1.0);
  Alcotest.(check int) "interp caps at the observed max" huge
    (Metrics.Histogram.quantile_interp o 1.0);
  Alcotest.(check bool) "median stays in the low bucket" true
    (Metrics.Histogram.quantile_interp o 0.5 <= 4);
  (* max_int itself stays finite and nonnegative *)
  let x = Metrics.Histogram.create "maxint" in
  Metrics.Histogram.observe x max_int;
  Alcotest.(check int) "quantile of max_int sample" max_int
    (Metrics.Histogram.quantile x 1.0);
  let v = Metrics.Histogram.quantile_interp x 1.0 in
  Alcotest.(check bool) "interp nonnegative and bounded" true (v >= 0 && v <= max_int)

(* ---------- checks_hoisted semantics are uniform across schemes ---------- *)

(* The invariant the static optimizer (and Figure 10) relies on:
   [checks_hoisted] counts widened range checks that actually execute in
   place of per-access checks. Only the sgxbounds variants with hoisting
   enabled may report it; every other scheme reports exactly 0 even when
   the workload calls [check_range] (ASan/MPX/Baggy model compilers that
   keep per-access checks, so their [check_range] is a no-op and their
   [*_unchecked] accessors stay checked). Always: hoisted <= done, and a
   hoist only ever appears together with elisions it pays for. *)

let hoisting_schemes = [ "sgxbounds"; "sgxbounds-hoist"; "sgxbounds-boundless" ]

let test_hoist_counter_semantics () =
  let open Sb_protection.Types in
  List.iter
    (fun scheme ->
       let ms = Memsys.create (Config.default ()) in
       let s = Harness.maker scheme ms in
       let module Scheme = Sb_protection.Scheme in
       (* the canonical hoisted loop: one range check, unchecked body *)
       let p = s.Scheme.malloc 64 in
       s.Scheme.check_range p 64 Write;
       for i = 0 to 7 do
         s.Scheme.store_unchecked (s.Scheme.offset p (8 * i)) 8 i
       done;
       ignore (s.Scheme.safe_load p 8 : int);
       let x = s.Scheme.extras in
       let hoists = List.mem scheme hoisting_schemes in
       Alcotest.(check bool)
         (scheme ^ ": hoisted>0 exactly under hoisting sgxbounds variants")
         hoists (x.checks_hoisted > 0);
       Alcotest.(check bool) (scheme ^ ": hoisted <= done") true
         (x.checks_hoisted <= x.checks_done);
       if hoists then begin
         Alcotest.(check int) (scheme ^ ": one range check, one hoist") 1
           x.checks_hoisted;
         Alcotest.(check bool) (scheme ^ ": the hoist pays for elisions") true
           (x.checks_elided >= 8)
       end;
       if scheme = "native" then begin
         Alcotest.(check int) "native: no checks" 0 x.checks_done;
         Alcotest.(check int) "native: no elisions" 0 x.checks_elided
       end)
    Harness.scheme_names

let test_hoist_counters_on_workload () =
  (* same invariant end-to-end, plus: all hoisting variants agree on the
     whole counter triple (hoisting is independent of boundless/safe) *)
  let triple scheme =
    let m = run_metrics ~n:2048 ~scheme "kmeans" in
    (m.Harness.checks_done, m.Harness.checks_elided, m.Harness.checks_hoisted)
  in
  let reference = triple "sgxbounds" in
  let _, _, ref_hoisted = reference in
  Alcotest.(check bool) "sgxbounds hoists on kmeans" true (ref_hoisted > 0);
  List.iter
    (fun scheme ->
       let ((done_, _, hoisted) as t) = triple scheme in
       Alcotest.(check bool) (scheme ^ ": hoisted <= done") true (hoisted <= done_);
       if List.mem scheme hoisting_schemes then
         Alcotest.(check (triple int int int))
           (scheme ^ ": counter triple matches sgxbounds") reference t
       else Alcotest.(check int) (scheme ^ ": reports no hoists") 0 hoisted)
    Harness.scheme_names

let suite =
  suite
  @ [
      Alcotest.test_case "histogram quantile corners" `Quick
        test_histogram_quantile_corners;
      Alcotest.test_case "checks_hoisted semantics per scheme" `Quick
        test_hoist_counter_semantics;
      Alcotest.test_case "checks_hoisted invariant on kmeans" `Quick
        test_hoist_counters_on_workload;
    ]
