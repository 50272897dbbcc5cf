(** Command-line driver: run any evaluation workload under any protection
    scheme, inside or outside the (simulated) enclave, and print the
    metrics the paper's plots are built from.

    Examples:
      sgxbounds_cli run -w kmeans -s sgxbounds
      sgxbounds_cli run -w kmeans -s sgxbounds --stats --trace out.json
      sgxbounds_cli run -w mcf -s mpx --outside --json
      sgxbounds_cli stats -w kmeans
      sgxbounds_cli compare -w pca -t 8
      sgxbounds_cli list *)

open Cmdliner
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config
module Telemetry = Sb_telemetry.Telemetry
module Sink = Sb_telemetry.Sink
module Json = Sb_telemetry.Json
module Tsv = Sb_telemetry.Tsv
module Profile = Sb_telemetry.Profile

(* Unknown workload/scheme names are user errors: report them cleanly on
   stderr (with the valid spellings) instead of an exception trace. *)
let die fmt = Fmt.kstr (fun msg -> Fmt.epr "sgxbounds_cli: %s@." msg; exit 2) fmt

let find_workload name =
  match Registry.find_opt name with
  | Some w -> w
  | None ->
    die "unknown workload '%s'.@.Valid workloads: %s" name (String.concat ", " Registry.names)

let check_scheme name =
  if Harness.maker_opt name = None then
    die "unknown scheme '%s'.@.Valid schemes: %s" name (String.concat ", " Harness.scheme_names)

let pp_outcome w = function
  | Harness.Completed m ->
    Fmt.pr
      "%-18s cycles=%-12d instrs=%-10d accesses=%-10d llc_miss=%-9d epc_faults=%-8d peak_vm=%a bts=%d@."
      w m.Harness.cycles m.Harness.instrs m.Harness.mem_accesses m.Harness.llc_misses
      m.Harness.epc_faults Sb_machine.Util.pp_bytes m.Harness.peak_vm m.Harness.bts
  | Harness.Crashed msg -> Fmt.pr "%-18s CRASHED: %s@." w msg

let workload_arg =
  let doc = "Workload name (see `list')." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let scheme_arg =
  let doc = "Protection scheme: native, sgxbounds, sgxbounds-noopt, sgxbounds-safe, \
             sgxbounds-hoist, sgxbounds-boundless, asan, mpx, baggy." in
  Arg.(value & opt string "sgxbounds" & info [ "s"; "scheme" ] ~doc)

let threads_arg =
  Arg.(value & opt int 1 & info [ "t"; "threads" ] ~doc:"Simulated threads.")

let n_arg =
  Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Working-set parameter override.")

let outside_arg =
  Arg.(value & flag & info [ "outside" ] ~doc:"Run outside the enclave (no EPC/MEE).")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ]
           ~doc:"Fan independent cells across N OCaml domains (host parallelism; \
                 simulated results are identical to a sequential sweep).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the per-access-class cycle attribution table and telemetry summary.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the run (open at chrome://tracing or \
                 ui.perfetto.dev). Contains phase spans and EPC fault/eviction events.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON instead of the human summary.")

let env_of outside = if outside then Config.Outside_enclave else Config.Inside_enclave

(* Event ring size for traced runs: enough for the full span set plus the
   most recent ~64k EPC events; older ones are counted as dropped. *)
let trace_capacity = 65536

let run_cmd =
  let run workload scheme threads n outside stats trace json =
    let w = find_workload workload in
    check_scheme scheme;
    let observing = stats || trace <> None || json in
    let tel =
      if observing then Telemetry.create ~capacity:trace_capacity ()
      else Telemetry.disabled ()
    in
    let r = Harness.run_one ~tel ~env:(env_of outside) ~threads ?n ~scheme w in
    (match trace with
     | Some file ->
       (try
          Sink.write_chrome_trace ~process_name:(workload ^ "/" ^ scheme) file
            (Sink.snapshot tel)
        with Sys_error e -> die "cannot write trace: %s" e)
     | None -> ());
    if json then
      let telemetry =
        if stats then [ ("telemetry", Sink.to_json (Sink.snapshot tel)) ] else []
      in
      Fmt.pr "%s@."
        (Json.to_string
           (match Harness.json_of_result r with
            | Json.Obj kvs -> Json.Obj (kvs @ telemetry)
            | j -> j))
    else begin
      pp_outcome (workload ^ "/" ^ scheme) r.Harness.outcome;
      if stats then begin
        (match r.Harness.outcome with
         | Harness.Completed m ->
           Harness.print_attribution ~label:(workload ^ "/" ^ scheme) m
         | Harness.Crashed _ -> ());
        Fmt.pr "@.%a" Sink.pp_table (Sink.snapshot tel)
      end;
      match trace with
      | Some file -> Fmt.pr "trace written to %s@." file
      | None -> ()
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one scheme.")
    Term.(const run $ workload_arg $ scheme_arg $ threads_arg $ n_arg $ outside_arg
          $ stats_arg $ trace_arg $ json_arg)

let stats_cmd =
  let run workload threads n outside json jobs =
    let w = find_workload workload in
    let env = env_of outside in
    (* Each ablation variant is an independent cell with its own Memsys;
       fan them across domains when --jobs asks for it. *)
    let results =
      Parallel_runner.run_cells ~jobs
        (List.map
           (fun scheme -> Parallel_runner.cell ~env ~threads ?n ~scheme w)
           Harness.ablation_schemes)
    in
    if json then
      Fmt.pr "%s@." (Json.to_string (Json.List (List.map Harness.json_of_result results)))
    else begin
      Harness.print_ablation results;
      List.iter
        (fun (r : Harness.result) ->
           match (r.Harness.scheme, r.Harness.outcome) with
           | ("sgxbounds" | "sgxbounds-noopt"), Harness.Completed m ->
             Harness.print_attribution ~label:(r.Harness.workload ^ "/" ^ r.Harness.scheme) m
           | _ -> ())
        results;
      (* Cross-cell view: sum the per-class counters of every cell's
         private Memsys — never read from a single (e.g. the last)
         domain's memory system. *)
      match Harness.aggregate_metrics (Harness.completed_metrics results) with
      | Some agg ->
        Harness.print_attribution
          ~label:
            (Fmt.str "aggregate over %d cells (counters summed across domains)"
               (List.length (Harness.completed_metrics results)))
          agg
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Explain a workload's overhead: run the §4.4 optimization ablation \
             (native + all sgxbounds variants) and print per-cell cycle attribution \
             plus the aggregate across all cells.")
    Term.(const run $ workload_arg $ threads_arg $ n_arg $ outside_arg $ json_arg $ jobs_arg)

let compare_cmd =
  let run workload threads n outside jobs =
    let w = find_workload workload in
    let schemes = [ "native"; "sgxbounds"; "asan"; "mpx" ] in
    let results =
      Parallel_runner.run_cells ~jobs
        (List.map
           (fun s -> Parallel_runner.cell ~env:(env_of outside) ~threads ?n ~scheme:s w)
           schemes)
    in
    List.iter (fun r -> pp_outcome r.Harness.scheme r.Harness.outcome) results;
    match (List.hd results).Harness.outcome with
    | Harness.Completed base ->
      List.iter
        (fun r ->
           match Harness.perf_ratio ~baseline:base r with
           | Some ratio when r.Harness.scheme <> "native" ->
             Fmt.pr "%-12s overhead: %.2fx@." r.Harness.scheme ratio
           | _ -> ())
        results
    | Harness.Crashed _ -> ()
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run one workload under all main schemes.")
    Term.(const run $ workload_arg $ threads_arg $ n_arg $ outside_arg $ jobs_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Registry.spec) ->
         Fmt.pr "%-18s %-8s %s n=%d@." s.Registry.name
           (Registry.suite_name s.Registry.suite)
           (if s.Registry.pointer_intensive then "pointer-intensive" else "flat            ")
           s.Registry.default_n)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all workloads.") Term.(const run $ const ())

let ripe_cmd =
  let run scheme =
    check_scheme scheme;
    let ms = Sb_sgx.Memsys.create (Config.default ()) in
    let s = Harness.maker scheme ms in
    let results = Sb_ripe.Ripe.run_all s in
    List.iter
      (fun ((a : Sb_ripe.Ripe.attack), o) ->
         Fmt.pr "%-40s %s@." (Sb_ripe.Ripe.name a)
           (match o with
            | Sb_ripe.Ripe.Succeeded -> "SUCCEEDED"
            | Sb_ripe.Ripe.Prevented -> "prevented"
            | Sb_ripe.Ripe.Failed -> "failed (no corruption)"))
      results;
    Fmt.pr "@.%s: prevented %d/16, succeeded %d/16@." scheme
      (Sb_ripe.Ripe.count_prevented results)
      (Sb_ripe.Ripe.count_succeeded results)
  in
  Cmd.v (Cmd.info "ripe" ~doc:"Run the 16-attack RIPE matrix under a scheme.")
    Term.(const run $ scheme_arg)

let exploits_cmd =
  let run scheme =
    check_scheme scheme;
    let mk () =
      let ms = Sb_sgx.Memsys.create (Config.default ()) in
      Sb_workloads.Wctx.make (Harness.maker scheme ms)
    in
    let pp_http = function
      | Sb_apps.Http_sim.Leaked m -> "LEAKED: " ^ m
      | Sb_apps.Http_sim.Detected -> "detected"
      | Sb_apps.Http_sim.Contained_zeros -> "contained (boundless memory)"
      | Sb_apps.Http_sim.Corrupted -> "MEMORY CORRUPTED"
      | Sb_apps.Http_sim.Harmless -> "harmless"
    in
    Fmt.pr "heartbleed:      %s@."
      (pp_http (Sb_apps.Http_sim.heartbeat (mk ()) ~claimed_len:256));
    Fmt.pr "CVE-2013-2028:   %s@."
      (pp_http (Sb_apps.Http_sim.chunked_request (mk ()) ~chunk_size:0xFFFFF000));
    let mc =
      Sb_apps.Memcached_sim.handle_binary_packet
        (Sb_apps.Memcached_sim.create (mk ()))
        ~body_len:(-1024)
    in
    Fmt.pr "CVE-2011-4971:   %s@."
      (match mc with
       | Sb_apps.Memcached_sim.Processed -> "processed (?)"
       | Sb_apps.Memcached_sim.Corrupted -> "MEMORY CORRUPTED"
       | Sb_apps.Memcached_sim.Detected_dropped -> "detected; dropped (EINVAL)"
       | Sb_apps.Memcached_sim.Crashed_segfault -> "SEGFAULT (DoS)"
       | Sb_apps.Memcached_sim.Survived_looping ->
         "boundless: content discarded; logic loops (paper §7)")
  in
  Cmd.v (Cmd.info "exploits" ~doc:"Run the §7 real-exploit reproductions under a scheme.")
    Term.(const run $ scheme_arg)

let validate_bench_cmd =
  (* every committed results table, recognised by its header line *)
  let tables =
    [ Sb_service.Fleet.capacity_schema; Sb_analysis.Symex.matrix_schema;
      Sb_analysis.Optimizer.elision_schema; Sb_service.Experiment.tsv_schema;
      Sb_fex.Fex.schema; Sb_harness.Agreement.schema ]
  in
  let run file =
    let contents =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error e -> die "cannot read %s: %s" file e
    in
    match Tsv.find tables contents with
    | Some schema ->
      (match Tsv.validate schema contents with
       | Ok rows ->
         Fmt.pr "%s: valid %s table (%d rows, %d columns)@." file schema.Tsv.name rows
           (List.length schema.Tsv.columns)
       | Error e -> die "%s: %s" file (Tsv.error_to_string e))
    | None ->
      (match Json.parse contents with
       | Error msg -> die "%s: neither a known results table nor JSON: %s" file msg
       | Ok j ->
         (match Sb_service.Score.validate j with
          | Ok () -> Fmt.pr "%s: valid score document (engine, score_total, kernels, trend)@." file
          | Error msg -> die "%s: %s" file msg))
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"A results/*.tsv table or a `bench score' JSON document.")
  in
  Cmd.v
    (Cmd.info "validate-bench"
       ~doc:"Validate a committed results table or bench document. A TSV file is \
             recognised by its header line as one of the committed tables \
             (fleet_capacity, interface_matrix, check_elision, fig13_latency, the \
             fig7/fig11 overhead tables, engine_agreement) and checked against that \
             table's declared schema: column count, each cell's type, and the \
             table's row and table rules. Any other file must be a `bench score' \
             JSON document: engine, score_total, per-kernel scores and a trend \
             array. Exits 2 on the first problem, naming its row.")
    Term.(const run $ file_arg)

let fuzz_cmd =
  let module Fuzz = Sb_fuzz.Fuzz in
  let module Trace = Sb_fuzz.Trace in
  let run_symbolic_seeds total quiet =
    let module Symex = Sb_analysis.Symex in
    (* the unprotected corpus sweep yields the findings; each becomes a
       seed trace replayed through the full differential oracle *)
    let cells = Symex.corpus_sweep ~schemes:[ "native" ] () in
    let seeds = Symex.seed_traces cells in
    if seeds = [] then die "symbolic corpus produced no translatable seeds";
    let traces = Symex.expand_seeds ~total seeds in
    List.iteri
      (fun i tr ->
         if (not quiet) && i mod 50 = 0 then
           Fmt.epr "fuzz: %d/%d symbolic seed traces ok@." i total;
         match Fuzz.check_trace tr with
         | None -> ()
         | Some f ->
           Fmt.pr "fuzz: symbolic seed trace %d FAILED@." i;
           Fmt.pr "  %a@." Fuzz.pp_failure f;
           Fmt.pr "%s" (Trace.to_string tr);
           exit 1)
      traces;
    Fmt.pr "fuzz: %d symbolic seed traces (from %d findings) x all schemes x 2 \
            engines: all invariants held@."
      total (List.length seeds)
  in
  let run seed iters shrink bad inject quiet symseeds =
    if symseeds < 0 then die "--symbolic-seeds must be >= 0";
    if symseeds > 0 then run_symbolic_seeds symseeds quiet
    else begin
    if iters < 1 then die "--iters must be >= 1";
    if bad < 0.0 || bad > 1.0 then die "--bad must be in [0, 1]";
    let specs =
      match inject with
      | None -> Fuzz.default_specs ()
      | Some name -> (
          match Sb_protection.Faulty.fault_of_string name with
          | None ->
            die "unknown fault '%s'.@.Valid faults: %s" name
              (String.concat ", " Sb_protection.Faulty.fault_names)
          | Some fault ->
            (* Graft the fault onto sgxbounds; its contract still holds
               it to the unbroken scheme's standard, so the campaign
               must fail — the harness's own sanity check. *)
            List.map
              (fun (sp : Fuzz.spec) ->
                 if sp.Fuzz.sp_name = "sgxbounds" then
                   { sp with
                     Fuzz.sp_maker = (fun m -> Sb_protection.Faulty.inject fault (sp.Fuzz.sp_maker m)) }
                 else sp)
              (Fuzz.default_specs ()))
    in
    let params = { Trace.default_params with Trace.p_bad = bad } in
    let progress i =
      if (not quiet) && i mod 100 = 0 then Fmt.epr "fuzz: %d/%d traces ok@." i iters
    in
    let report = Fuzz.campaign ~specs ~params ~progress ~shrink ~seed ~iters () in
    match report.Fuzz.rp_counterexample with
    | None ->
      Fmt.pr "fuzz: %d traces (%d events) x %d schemes x 2 engines: all invariants held \
              (seed %d)@."
        report.Fuzz.rp_ran report.Fuzz.rp_events (List.length report.Fuzz.rp_schemes) seed
    | Some cx ->
      Fmt.pr "fuzz: FAILED at iteration %d (seed %d)@." cx.Fuzz.cx_iter seed;
      Fmt.pr "  %a@." Fuzz.pp_failure cx.Fuzz.cx_failure;
      Fmt.pr "  original trace: %d events; shrunk counterexample (%d events):@."
        (Array.length cx.Fuzz.cx_trace) (Array.length cx.Fuzz.cx_shrunk);
      Fmt.pr "%s" (Trace.to_string cx.Fuzz.cx_shrunk);
      Fmt.pr "  replay with: %s%s@." (Fuzz.replay_command ~seed cx)
        (match inject with Some f -> " --inject " ^ f | None -> "");
      exit 1
    end
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (deterministic).")
  in
  let iters_arg =
    Arg.(value & opt int 500 & info [ "iters" ] ~docv:"N" ~doc:"Number of traces to generate.")
  in
  let shrink_arg =
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL"
           ~doc:"Shrink a failing trace to a minimal counterexample.")
  in
  let bad_arg =
    Arg.(value & opt float 0.5 & info [ "bad" ] ~docv:"P"
           ~doc:"Fraction of traces seeded with deliberate violations.")
  in
  let inject_arg =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Break sgxbounds on purpose (elide-checks, deaf-libc); the campaign must \
                 then fail — a self-test of the fuzzer.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output on stderr.")
  in
  let symseeds_arg =
    Arg.(value & opt int 0
         & info [ "symbolic-seeds" ] ~docv:"N"
             ~doc:"Instead of random traces, replay N traces deterministically \
                   expanded from the symbolic interface auditor's corpus \
                   findings through the differential oracle.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: replay random seeded traces through every protection \
             scheme under both memory engines and check them against a ground-truth \
             oracle (engines bit-for-bit equal; zero false positives; no missed \
             in-contract violations). On failure, prints a shrunk counterexample and \
             the exact replay command, and exits 1.")
    Term.(const run $ seed_arg $ iters_arg $ shrink_arg $ bad_arg $ inject_arg
          $ quiet_arg $ symseeds_arg)

let analyze_cmd =
  let module Analyze = Sb_analysis.Analyze in
  let module Symex = Sb_analysis.Symex in
  let module Ia = Sb_service.Interface_audit in
  let run workload scheme threads n outside json selftest full symbolic corpus
      matrix jobs optimize out sarif =
    let module Opt = Sb_analysis.Optimizer in
    let module Sarif = Sb_analysis.Sarif in
    let write_file file s =
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s)
    in
    let write_sarif results =
      match sarif with
      | Some file ->
        write_file file (Sarif.to_string results);
        Fmt.pr "wrote %s (%d SARIF result(s))@." file (List.length results)
      | None -> ()
    in
    if optimize then begin
      if selftest then begin
        let sts = Opt.selftests () in
        let ok = Analyze.print_selftests sts in
        if not ok then exit 1
      end
      else begin
        let workloads =
          match workload with
          | None -> Registry.all
          | Some name -> [ find_workload name ]
        in
        let schemes =
          match scheme with
          | None -> Opt.default_sweep_schemes
          | Some s ->
            check_scheme s;
            [ s ]
        in
        let env = env_of outside in
        let rows =
          if full then
            List.concat_map
              (fun (w : Registry.spec) ->
                 Opt.sweep ~env ~threads ~n:w.Registry.default_n ~jobs ~schemes [ w ])
              workloads
          else Opt.sweep ~env ~threads ?n ~jobs ~schemes workloads
        in
        (* a single-cell invocation also dumps the certified plan *)
        let plan =
          match (workloads, schemes) with
          | [ w ], [ s ] ->
            let n = if full then Some w.Registry.default_n else n in
            Some (Opt.plan_of_cell ~env ~threads ?n ~scheme:s w)
          | _ -> None
        in
        (match out with
         | Some file ->
           write_file file (Opt.tsv_of_rows rows);
           Fmt.pr "wrote %s (%d row(s))@." file (List.length rows)
         | None -> ());
        (if json then
           let report = Opt.json_report rows in
           let doc =
             match (plan, report) with
             | Some p, Json.Obj fields ->
               Json.Obj (("plan", Opt.json_of_plan p) :: fields)
             | _ -> report
           in
           Fmt.pr "%s@." (Json.to_string doc)
         else begin
           (match plan with Some p -> Opt.print_plan p | None -> ());
           Opt.print_rows rows
         end);
        write_sarif
          (List.filter_map
             (fun r ->
                if r.Opt.r_sound then None
                else
                  Some
                    (Sarif.of_cert_failure ~workload:r.Opt.r_workload
                       ~scheme:r.Opt.r_scheme r.Opt.r_detail))
             rows);
        if List.exists (fun r -> not r.Opt.r_sound) rows then exit 1
      end
    end
    else if symbolic then begin
      let schemes =
        match scheme with
        | None -> Symex.matrix_schemes
        | Some s ->
          check_scheme s;
          [ s ]
      in
      if selftest then begin
        let sts = Symex.selftests () in
        let ok = Symex.print_selftests sts in
        if not ok then exit 1
      end
      else
        match matrix with
        | Some file ->
          (* the committed Table-4-style matrix: always the full scheme
             column set, independent of -s *)
          let cells = Symex.corpus_sweep ~jobs () in
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Symex.matrix_tsv cells));
          (match Symex.verify_matrix cells with
           | [] -> Fmt.pr "wrote %s (%d cells, pins hold)@." file (List.length cells)
           | problems ->
             List.iter (fun p -> Fmt.epr "matrix pin violated: %s@." p) problems;
             exit 1)
        | None ->
          if corpus then begin
            (* the deliberately buggy corpus: must exit non-zero *)
            let cells = Symex.corpus_sweep ~jobs ~schemes () in
            if json then Fmt.pr "%s@." (Json.to_string (Symex.json_report cells))
            else Symex.print_cells cells;
            write_sarif
              (List.concat_map
                 (fun c ->
                    List.map
                      (Sarif.of_finding ~workload:c.Symex.cc_class
                         ~scheme:c.Symex.cc_scheme)
                      c.Symex.cc_findings)
                 cells);
            if List.exists (fun c -> c.Symex.cc_status <> "ok") cells then exit 1
          end
          else begin
            (* the shipped service handlers: must be clean *)
            let cells = Ia.sweep ~jobs ~schemes () in
            if json then Fmt.pr "%s@." (Json.to_string (Ia.json_report cells))
            else Ia.print_report cells;
            write_sarif
              (List.concat_map
                 (fun c ->
                    List.map
                      (Sarif.of_finding ~workload:c.Ia.ic_app ~scheme:c.Ia.ic_scheme)
                      c.Ia.ic_findings)
                 cells);
            if Ia.cells_bad cells <> [] then exit 1
          end
    end
    else if selftest then begin
      let sts = Analyze.selftests () in
      let ok = Analyze.print_selftests sts in
      if not ok then exit 1
    end
    else begin
      let workloads =
        match workload with
        | None -> Registry.all
        | Some name -> [ find_workload name ]
      in
      let schemes =
        match scheme with
        | None -> Analyze.default_schemes
        | Some s ->
          check_scheme s;
          [ s ]
      in
      let n = if full then Some None else Option.map Option.some n in
      (* [n]: None = smoke size per workload; Some None = registry default_n *)
      let cells =
        List.concat_map
          (fun (w : Registry.spec) ->
             List.map
               (fun scheme ->
                  let n =
                    match n with
                    | None -> None
                    | Some None -> Some w.Registry.default_n
                    | Some (Some n) -> Some n
                  in
                  Analyze.run_cell ~env:(env_of outside) ~threads ?n ~scheme w)
               schemes)
          workloads
      in
      if json then Fmt.pr "%s@." (Json.to_string (Analyze.json_report cells))
      else Analyze.print_report cells;
      write_sarif
        (List.concat_map
           (fun c ->
              List.map
                (Sarif.of_finding ~workload:c.Analyze.c_workload
                   ~scheme:c.Analyze.c_scheme)
                c.Analyze.c_findings)
           cells);
      if
        Analyze.cells_findings cells > 0
        || Analyze.cells_crashed cells > 0
        || Analyze.cells_subset_bad cells > 0
      then exit 1
    end
  in
  let workload_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~doc:"Audit only this workload (default: all).")
  in
  let scheme_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "s"; "scheme" ]
             ~doc:"Audit only this scheme (default: native, sgxbounds, asan, mpx).")
  in
  let selftest_arg =
    Arg.(value & flag
         & info [ "selftest" ]
             ~doc:"Verify the auditor itself: the seeded §4.1 MPX bounds-table race \
                   must be detected (and not under sgxbounds), deliberately broken \
                   annotations (bad hoist / bogus safe access / mismatched libc \
                   widths) must be flagged, and a disciplined kernel must audit \
                   clean under every scheme.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Audit at the registry's full default working-set sizes instead \
                   of smoke sizes.")
  in
  let symbolic_arg =
    Arg.(value & flag
         & info [ "symbolic" ]
             ~doc:"Symbolic interface audit: taint request bytes and flag \
                   attacker-derived pointers/lengths reaching memory or libc \
                   without a dominating check, double fetches and phase \
                   disorder. Default target: the shipped service handlers \
                   (must be clean). With --selftest, runs the symbolic pass's \
                   own selftests over the buggy corpus.")
  in
  let corpus_arg =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"With --symbolic: audit the deliberately buggy handler \
                   corpus instead of the shipped handlers (exits non-zero by \
                   construction).")
  in
  let matrix_arg =
    Arg.(value & opt (some string) None
         & info [ "matrix" ] ~docv:"FILE"
             ~doc:"With --symbolic: run the buggy corpus under the full scheme \
                   column set, verify the Table-4 pins and write the \
                   interface-audit matrix TSV to FILE.")
  in
  let optimize_arg =
    Arg.(value & flag
         & info [ "optimize" ]
             ~doc:"Static check optimizer: record each cell's op stream, infer \
                   affine-site certificates (hoist one widened check per loop, \
                   elide dominated checks), verify every certificate, then \
                   re-run with the elision plan active and prove the optimized \
                   run sound (same verdicts, same data traffic, zero runtime \
                   certificate rejections, cycles not up). A single-cell \
                   invocation (-w and -s) also dumps the plan. With --selftest, \
                   runs the optimizer's own certificate/tamper/determinism \
                   selftests instead. Exits non-zero if any cell is unsound.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"With --optimize: also write the check-elision TSV \
                   (results/check_elision.tsv schema) to FILE.")
  in
  let sarif_arg =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Write findings as SARIF 2.1.0 to FILE: audit/interface-audit \
                   findings on the audit paths, certificate-verification \
                   failures under --optimize.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Instrumentation audit: run workloads under schemes wrapped in the \
             auditing meta-scheme, which verifies the §4.4 check contracts \
             (check_range coverage of unchecked accesses, safe-access claims, \
             libc wrapper widths) and — for multithreaded runs — detects \
             unsynchronized data and scheme-metadata races via vector-clock \
             happens-before. --symbolic adds the taint-based interface audit \
             over the service request handlers. Exits non-zero on any finding \
             or crash.")
    Term.(const run $ workload_opt_arg $ scheme_opt_arg $ threads_arg $ n_arg
          $ outside_arg $ json_arg $ selftest_arg $ full_arg $ symbolic_arg
          $ corpus_arg $ matrix_arg $ jobs_arg $ optimize_arg $ out_arg
          $ sarif_arg)

let profile_cmd =
  let module Sexp = Sb_service.Experiment in
  let module Drivers = Sb_service.Drivers in
  let path_str = function [] -> "(root)" | p -> String.concat ";" p in
  (* bucket with the largest |cycles| share; first index wins ties *)
  let dominant buckets arr =
    let best = ref 0 and bi = ref (-1) in
    Array.iteri (fun i v -> if abs v > !best then begin best := abs v; bi := i end) arr;
    if !bi < 0 then "-" else buckets.(!bi)
  in
  let print_profile ~label prof =
    let total = Profile.total prof in
    Fmt.pr "profile %s: %d cycles attributed@." label total;
    Fmt.pr "%12s %6s %10s  %-12s %s@." "self" "%" "charges" "dominant" "site";
    let rows =
      Profile.rows prof
      |> List.filter (fun r -> r.Profile.r_self > 0)
      |> List.sort (fun a b ->
          match compare b.Profile.r_self a.Profile.r_self with
          | 0 -> compare a.Profile.r_path b.Profile.r_path
          | c -> c)
    in
    List.iteri
      (fun i r ->
         if i < 24 then
           Fmt.pr "%12d %5.1f%% %10d  %-12s %s@." r.Profile.r_self
             (100. *. float_of_int r.Profile.r_self /. float_of_int (max 1 total))
             r.Profile.r_charges
             (dominant (Profile.bucket_names prof) r.Profile.r_buckets)
             (path_str r.Profile.r_path))
      rows
  in
  let print_diff ~a_label ~b_label prof_a ds =
    let buckets = Profile.bucket_names prof_a in
    let total_delta = List.fold_left (fun acc d -> acc + Profile.d_delta d) 0 ds in
    Fmt.pr "profile diff: %s -> %s (%+d cycles)@." a_label b_label total_delta;
    (* where the extra cycles live, by cost bucket across all sites *)
    let by_bucket = Array.make (Array.length buckets) 0 in
    List.iter
      (fun d ->
         Array.iteri (fun i v -> by_bucket.(i) <- by_bucket.(i) + v) d.Profile.d_buckets)
      ds;
    Fmt.pr "delta by class:";
    Array.iteri
      (fun i v -> if v <> 0 then Fmt.pr " %s=%+d" buckets.(i) v)
      by_bucket;
    Fmt.pr "@.";
    Fmt.pr "%12s %12s %12s  %-12s %s@." "delta" a_label b_label "dominant" "site";
    List.iteri
      (fun i d ->
         if i < 24 && (d.Profile.d_a > 0 || d.Profile.d_b > 0) then
           Fmt.pr "%+12d %12d %12d  %-12s %s@." (Profile.d_delta d) d.Profile.d_a
             d.Profile.d_b
             (dominant buckets d.Profile.d_buckets)
             (path_str d.Profile.d_path))
      ds
  in
  let run workload app scheme diff threads n outside requests out json =
    let env = env_of outside in
    (* One profiled run of the chosen target under [scheme]: a registry
       workload with -w, otherwise the service app handler. *)
    let target, collect =
      match workload with
      | Some wname ->
        let w = find_workload wname in
        ( wname,
          fun scheme ->
            let r, prof = Harness.run_profiled ~env ~threads ?n ~scheme w in
            (match r.Harness.outcome with
             | Harness.Completed _ -> ()
             | Harness.Crashed msg -> die "profile %s/%s crashed: %s" wname scheme msg);
            prof )
      | None ->
        let app =
          match Drivers.of_string app with
          | Some a -> a
          | None ->
            die "unknown app '%s'.@.Valid apps: %s" app (String.concat ", " Drivers.app_names)
        in
        ( Drivers.name app,
          fun scheme ->
            match Sexp.profile_app ~env ~requests ~app ~scheme () with
            | Ok prof -> prof
            | Error msg -> die "profile %s/%s crashed: %s" (Drivers.name app) scheme msg )
    in
    match diff with
    | Some spec ->
      let a_scheme, b_scheme =
        match String.split_on_char ':' spec with
        | [ a; b ] when a <> "" && b <> "" -> (a, b)
        | _ -> die "--diff expects SCHEME_A:SCHEME_B (e.g. sgxbounds:mpx)"
      in
      check_scheme a_scheme;
      check_scheme b_scheme;
      let pa = collect a_scheme and pb = collect b_scheme in
      let ds = Profile.diff pa pb in
      let a_label = target ^ "/" ^ a_scheme and b_label = target ^ "/" ^ b_scheme in
      if json then
        Fmt.pr "%s@." (Json.to_string (Profile.diff_to_json ~a_label ~b_label pa ds))
      else print_diff ~a_label ~b_label pa ds
    | None ->
      check_scheme scheme;
      let prof = collect scheme in
      let label = target ^ "/" ^ scheme in
      (match out with
       | Some file ->
         (try Sink.write_file file (Profile.to_collapsed ~label prof)
          with Sys_error e -> die "cannot write %s: %s" file e)
       | None -> ());
      if json then Fmt.pr "%s@." (Json.to_string (Profile.to_json ~label prof))
      else begin
        print_profile ~label prof;
        match out with
        | Some file -> Fmt.pr "collapsed stacks written to %s@." file
        | None -> ()
      end
  in
  let workload_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ]
             ~doc:"Profile this registry workload (default: profile a service app).")
  in
  let app_arg =
    Arg.(value & opt string "memcached"
         & info [ "app" ] ~docv:"APP"
             ~doc:"Service app to profile when no -w is given: http, memcached, sqlite.")
  in
  let diff_arg =
    Arg.(value & opt (some string) None
         & info [ "diff" ] ~docv:"A:B"
             ~doc:"Differential mode: profile the target under scheme A and scheme B and \
                   report per-site cycle deltas (B - A), e.g. --diff sgxbounds:mpx.")
  in
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "requests" ] ~doc:"Requests to serve in app mode (one worker, no load gen).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write collapsed-stack flamegraph text (\"site;...;site cycles\" lines, \
                   flamegraph.pl / speedscope folded format).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Site-attributed simulation profile: where the simulated cycles go, per site \
             (setup / run / request, scheme op hooks) and per memsys class, as a table, \
             collapsed-stack flamegraph text, JSON, or an A:B differential between two \
             schemes.")
    Term.(const run $ workload_opt_arg $ app_arg $ scheme_arg $ diff_arg $ threads_arg
          $ n_arg $ outside_arg $ requests_arg $ out_arg $ json_arg)

let serve_cmd =
  let module Service = Sb_service.Service in
  let module Loadgen = Sb_service.Loadgen in
  let module Drivers = Sb_service.Drivers in
  let module Sexp = Sb_service.Experiment in
  let module Latency = Sb_service.Latency in
  let module Spans = Sb_service.Spans in
  let module Fleet = Sb_service.Fleet in
  let module Ycsb = Sb_service.Ycsb in
  (* "--kill I@CYCLES[,I@CYCLES...]", repeatable *)
  let parse_kills specs =
    List.concat_map
      (fun spec ->
         List.filter_map
           (fun part ->
              let part = String.trim part in
              if part = "" then None
              else
                match String.index_opt part '@' with
                | Some i -> (
                    try
                      Some
                        ( int_of_string (String.sub part 0 i),
                          int_of_string
                            (String.sub part (i + 1) (String.length part - i - 1)) )
                    with Failure _ -> die "bad --kill spec '%s' (want I@CYCLES)" part)
                | None -> die "bad --kill spec '%s' (want I@CYCLES)" part)
           (String.split_on_char ',' spec))
      specs
  in
  let run_fleet ~fleet ~scheme ~rate ~workers ~queue ~requests ~process ~seed
      ~outside ~spans ~json ~policy ~ycsb ~dist ~records ~clients ~affinity ~kills =
    let workload =
      match Ycsb.of_string ycsb with
      | Some w -> w
      | None ->
        die "unknown YCSB workload '%s'.@.Valid workloads: %s" ycsb
          (String.concat ", " Ycsb.workload_names)
    in
    let dist =
      Option.map
        (fun d ->
           match Ycsb.dist_of_string d with
           | Some d -> d
           | None -> die "unknown key distribution '%s' (uniform, zipfian, latest)" d)
        dist
    in
    let policy =
      match Fleet.policy_of_string policy with
      | Some p -> p
      | None ->
        die "unknown policy '%s'.@.Valid policies: %s" policy
          (String.concat ", " Fleet.policy_names)
    in
    if records < 1 then die "--records must be >= 1";
    if clients < 1 then die "--clients must be >= 1";
    let cfg =
      {
        Fleet.default with
        Fleet.instances = fleet;
        workers;
        queue_cap = queue;
        requests;
        rate_rps = rate;
        process;
        seed;
        scheme;
        env = env_of outside;
        policy;
        affinity;
        clients;
        workload;
        dist;
        records;
        kills;
      }
    in
    match Fleet.run ?spans:(if json then Some spans else None) cfg with
    | Error msg ->
      if json then
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [ ("mode", Json.Str "fleet"); ("scheme", Json.Str scheme);
                  ("status", Json.Str "crashed"); ("reason", Json.Str msg) ]));
      die "serve --fleet %d ycsb-%s/%s crashed: %s" fleet (Ycsb.name workload)
        scheme msg
    | Ok st ->
      let s = Fleet.summary st in
      let qw = Latency.summary st.Fleet.queue_wait in
      if json then
        let inst_json (i : Fleet.inst_stats) =
          let ls = Latency.summary i.Fleet.i_latency in
          Json.Obj
            ([
               ("idx", Json.Int i.Fleet.i_idx);
               ("completed", Json.Int i.Fleet.i_completed);
               ("lost", Json.Int i.Fleet.i_lost);
               ("restarts", Json.Int i.Fleet.i_restarts);
               ("max_queue", Json.Int i.Fleet.i_max_queue);
               ("latency_p99", Json.Int ls.Latency.p99);
             ]
             @
             match i.Fleet.i_spans with
             | Some log -> [ ("spans", Spans.to_json log) ]
             | None -> [])
        in
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [
                  ("mode", Json.Str "fleet");
                  ("scheme", Json.Str scheme);
                  ("env", Json.Str (Harness.env_name cfg.Fleet.env));
                  ("policy", Json.Str (Fleet.policy_name policy));
                  ("ycsb", Json.Str (Ycsb.name workload));
                  ("process", Json.Str (Loadgen.to_string process));
                  ("offered_rps", Json.Float rate);
                  ("fleet", Json.Int fleet);
                  ("workers", Json.Int workers);
                  ("queue_cap", Json.Int queue);
                  ("seed", Json.Int seed);
                  ("records", Json.Int st.Fleet.records);
                  ("offered", Json.Int st.Fleet.offered);
                  ("completed", Json.Int st.Fleet.completed);
                  ("dropped", Json.Int st.Fleet.dropped);
                  ("failed_over", Json.Int st.Fleet.failed_over);
                  ("lost", Json.Int st.Fleet.lost);
                  ("restarts", Json.Int st.Fleet.restarts);
                  ("elapsed_cycles", Json.Int st.Fleet.elapsed);
                  ("throughput_rps", Json.Float (Fleet.throughput_rps st));
                  ( "latency_cycles",
                    Json.Obj
                      [ ("p50", Json.Int s.Latency.p50); ("p95", Json.Int s.Latency.p95);
                        ("p99", Json.Int s.Latency.p99); ("mean", Json.Float s.Latency.mean);
                        ("max", Json.Int s.Latency.max) ] );
                  ( "queue_wait_cycles",
                    Json.Obj
                      [ ("p50", Json.Int qw.Latency.p50); ("p99", Json.Int qw.Latency.p99) ] );
                  ( "instances",
                    Json.List (Array.to_list (Array.map inst_json st.Fleet.per_instance)) );
                ]))
      else begin
        Fmt.pr
          "fleet ycsb-%s/%s (%s): %d instances, policy %s%s, %s arrivals at %.0f rps, \
           %d workers/instance, queue %d, seed %d@."
          (Ycsb.name workload) scheme (Harness.env_name cfg.Fleet.env) fleet
          (Fleet.policy_name policy)
          (if affinity then " (affinity)" else "")
          (Loadgen.to_string process) rate workers queue seed;
        Fmt.pr
          "offered %d  completed %d  dropped %d (%.1f%%)  failed over %d  lost %d  \
           restarts %d@."
          st.Fleet.offered st.Fleet.completed st.Fleet.dropped
          (100. *. Fleet.drop_ratio st) st.Fleet.failed_over st.Fleet.lost
          st.Fleet.restarts;
        Fmt.pr "records %d -> %d  elapsed %.2f ms  throughput %.1f kops/s@." records
          st.Fleet.records
          (float_of_int st.Fleet.elapsed /. 1e6)
          (Fleet.throughput_rps st /. 1000.);
        Fmt.pr "latency:    %a@." Latency.pp s;
        Fmt.pr "queue wait: %a@." Latency.pp qw;
        Array.iter
          (fun (i : Fleet.inst_stats) ->
             Fmt.pr "instance %d: completed %d  lost %d  restarts %d  peak queue %d@."
               i.Fleet.i_idx i.Fleet.i_completed i.Fleet.i_lost i.Fleet.i_restarts
               i.Fleet.i_max_queue)
          st.Fleet.per_instance
      end
  in
  let run app scheme rate workers queue requests process seed outside smoke spans trace
      json fleet policy ycsb dist records clients affinity kill =
    check_scheme scheme;
    let process =
      match Loadgen.of_string process with
      | Some p -> p
      | None ->
        die "unknown arrival process '%s'.@.Valid processes: %s" process
          (String.concat ", " Loadgen.process_names)
    in
    if rate <= 0. then die "--rate must be positive (requests per simulated second)";
    if workers < 1 then die "--workers must be >= 1";
    if queue < 1 then die "--queue must be >= 1";
    if requests < 0 then die "--requests must be >= 0";
    if spans < 1 then die "--spans must be >= 1";
    if fleet < 0 then die "--fleet must be >= 0";
    let requests = if smoke then min requests 200 else requests in
    if fleet > 0 then begin
      (* fleet mode: the sharded KV fleet under a YCSB stream *)
      if trace <> None then
        die "--trace is single-instance only (use --json to inspect per-instance spans)";
      if app <> "memcached" then
        die "--fleet serves the built-in KV store; --app must stay 'memcached'";
      run_fleet ~fleet ~scheme ~rate ~workers ~queue ~requests ~process ~seed ~outside
        ~spans ~json ~policy ~ycsb ~dist ~records ~clients ~affinity
        ~kills:(parse_kills kill)
    end
    else begin
    let app =
      match Drivers.of_string app with
      | Some a -> a
      | None ->
        die "unknown app '%s'.@.Valid apps: %s" app
          (String.concat ", " Drivers.app_names)
    in
    let cfg =
      { Service.workers; queue_cap = queue; requests; rate_rps = rate; process; seed }
    in
    (* Request spans are recorded whenever they can be seen afterwards
       (--trace or --json); the plain human summary stays untraced. *)
    let tracing = trace <> None || json in
    let p =
      Sexp.run_cell ?spans:(if tracing then Some spans else None)
        { Sexp.app; scheme; env = env_of outside; cfg }
    in
    (match (trace, p.Sexp.pt_spans) with
     | Some file, Some log ->
       let snap =
         { Sink.counters = []; histograms = []; events = Spans.events log;
           dropped_events = 0 }
       in
       (try
          Sink.write_chrome_trace
            ~process_name:(p.Sexp.pt_app ^ "/" ^ scheme ^ " slowest requests") file snap
        with Sys_error e -> die "cannot write trace: %s" e)
     | _ -> ());
    match p.Sexp.pt_outcome with
    | Error msg ->
      if json then
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [ ("app", Json.Str p.Sexp.pt_app); ("scheme", Json.Str scheme);
                  ("status", Json.Str "crashed"); ("reason", Json.Str msg) ]));
      die "serve %s/%s crashed: %s" p.Sexp.pt_app scheme msg
    | Ok st ->
      let s = Service.summary st in
      let qw = Latency.summary st.Service.queue_wait in
      if json then
        let attribution =
          Json.Obj
            (List.map
               (fun (c, (cs : Sb_sgx.Memsys.class_stat)) ->
                  ( Sb_sgx.Memsys.class_name c,
                    Json.Obj
                      [ ("cycles", Json.Int cs.Sb_sgx.Memsys.cycles);
                        ("accesses", Json.Int cs.Sb_sgx.Memsys.accesses) ] ))
               p.Sexp.pt_attr
             @ [ ( "compute",
                   Json.Obj
                     [ ("cycles", Json.Int p.Sexp.pt_compute); ("accesses", Json.Int 0) ]
                 ) ])
        in
        let span_fields =
          match p.Sexp.pt_spans with
          | Some log -> [ ("spans", Spans.to_json log) ]
          | None -> []
        in
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                ([
                  ("app", Json.Str p.Sexp.pt_app);
                  ("scheme", Json.Str scheme);
                  ("env", Json.Str (Harness.env_name p.Sexp.pt_env));
                  ("process", Json.Str (Loadgen.to_string process));
                  ("offered_rps", Json.Float rate);
                  ("workers", Json.Int workers);
                  ("queue_cap", Json.Int queue);
                  ("seed", Json.Int seed);
                  ("offered", Json.Int st.Service.offered);
                  ("completed", Json.Int st.Service.completed);
                  ("dropped", Json.Int st.Service.dropped);
                  ("max_queue", Json.Int st.Service.max_queue);
                  ("elapsed_cycles", Json.Int st.Service.elapsed);
                  ("throughput_rps", Json.Float (Service.throughput_rps st));
                  ( "latency_cycles",
                    Json.Obj
                      [ ("p50", Json.Int s.Latency.p50); ("p95", Json.Int s.Latency.p95);
                        ("p99", Json.Int s.Latency.p99); ("mean", Json.Float s.Latency.mean);
                        ("max", Json.Int s.Latency.max) ] );
                  ( "queue_wait_cycles",
                    Json.Obj
                      [ ("p50", Json.Int qw.Latency.p50); ("p99", Json.Int qw.Latency.p99) ] );
                  ("attribution", attribution);
                ]
                 @ span_fields)))
      else begin
        Fmt.pr "serve %s/%s (%s): %s arrivals at %.0f rps, %d workers, queue %d, seed %d@."
          p.Sexp.pt_app scheme (Harness.env_name p.Sexp.pt_env)
          (Loadgen.to_string process) rate workers queue seed;
        Fmt.pr "offered %d  completed %d  dropped %d (%.1f%%)  peak queue %d@."
          st.Service.offered st.Service.completed st.Service.dropped
          (100. *. Service.drop_ratio st) st.Service.max_queue;
        Fmt.pr "elapsed %.2f ms  throughput %.1f kops/s@."
          (float_of_int st.Service.elapsed /. 1e6)
          (Service.throughput_rps st /. 1000.);
        Fmt.pr "latency:    %a@." Latency.pp s;
        Fmt.pr "queue wait: %a@." Latency.pp qw;
        match trace with
        | Some file -> Fmt.pr "slowest-request trace written to %s@." file
        | None -> ()
      end
    end
  in
  let app_arg =
    Arg.(value & opt string "memcached"
         & info [ "app" ] ~docv:"APP" ~doc:"Case-study app: http, memcached, sqlite.")
  in
  let rate_arg =
    Arg.(required & opt (some float) None
         & info [ "rate" ] ~docv:"RPS"
             ~doc:"Offered load in requests per simulated second (open loop: arrivals \
                   keep coming whether or not the server keeps up).")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Simulated server threads.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~doc:"Accept-queue bound; arrivals beyond it are shed.")
  in
  let requests_arg =
    Arg.(value & opt int 2000 & info [ "requests" ] ~doc:"Total offered requests.")
  in
  let process_arg =
    Arg.(value & opt string "poisson"
         & info [ "process" ] ~doc:"Arrival process: fixed, poisson, burst.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Arrival-schedule seed (deterministic).")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"CI mode: cap --requests at 200.")
  in
  let spans_arg =
    Arg.(value & opt int 8
         & info [ "spans" ] ~docv:"K"
             ~doc:"Exemplar reservoir size: keep the K slowest requests' trace spans \
                   (recorded when --trace or --json is given).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the slowest-request exemplar spans as Chrome trace_event JSON \
                   (queue-wait and execution windows per request, per-class cycles as \
                   args; open at chrome://tracing or ui.perfetto.dev).")
  in
  let fleet_arg =
    Arg.(value & opt int 0
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Serve from a fleet of N enclave instances (each with its own EPC) \
                   behind a load balancer, driven by a YCSB-style op stream. 0 = the \
                   single-instance path.")
  in
  let policy_arg =
    Arg.(value & opt string "hash"
         & info [ "policy" ] ~doc:"Balancer policy: round-robin, least-loaded, hash.")
  in
  let ycsb_arg =
    Arg.(value & opt string "A"
         & info [ "ycsb" ] ~docv:"W" ~doc:"YCSB core workload: A, B, C, D, E or F.")
  in
  let dist_arg =
    Arg.(value & opt (some string) None
         & info [ "dist" ]
             ~doc:"Override the workload's key distribution: uniform, zipfian, latest.")
  in
  let records_arg =
    Arg.(value & opt int 4096
         & info [ "records" ] ~doc:"Preloaded KV records (the YCSB key space).")
  in
  let clients_arg =
    Arg.(value & opt int 64
         & info [ "clients" ] ~doc:"Distinct client connections (for --affinity).")
  in
  let affinity_arg =
    Arg.(value & flag
         & info [ "affinity" ]
             ~doc:"Sticky client-to-instance routing (round-robin / least-loaded).")
  in
  let kill_arg =
    Arg.(value & opt_all string []
         & info [ "kill" ] ~docv:"I@CYCLES"
             ~doc:"Kill instance I at simulated time CYCLES (in-flight requests lost, \
                   queued ones failed over, instance relaunched after teardown + \
                   re-attestation). Repeatable; commas separate multiple kills.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Open-loop load generation against a case-study app: deterministic arrival \
             schedule, bounded accept queue (overload sheds, never wedges), per-request \
             latency percentiles. The service-layer reproduction of Figure 13. With \
             --fleet N, a sharded multi-instance KV fleet under a YCSB-style stream, \
             with optional mid-run instance failures.")
    Term.(const run $ app_arg $ scheme_arg $ rate_arg $ workers_arg $ queue_arg
          $ requests_arg $ process_arg $ seed_arg $ outside_arg $ smoke_arg $ spans_arg
          $ trace_out_arg $ json_arg $ fleet_arg $ policy_arg $ ycsb_arg $ dist_arg
          $ records_arg $ clients_arg $ affinity_arg $ kill_arg)

let () =
  let info = Cmd.info "sgxbounds_cli" ~doc:"SGXBounds reproduction driver" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stats_cmd; compare_cmd; list_cmd; ripe_cmd; exploits_cmd;
            validate_bench_cmd; fuzz_cmd; analyze_cmd; profile_cmd; serve_cmd ]))
