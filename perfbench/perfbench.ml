(** The repository benchmark: host-time cost of the simulator on three
    workloads, with every simulated result checked for bit-identity.

    {v
    perfbench --workload spec-epc|phoenix-mt|kv-serve --seed N
              --seconds S --trace 0|1
    perfbench --write-reference      (under SGXBOUNDS_ENGINE=naive)
    v}

    One process, one OCaml domain. The measured phase runs the
    workload's units back to back in rounds (a closed loop with one
    client) until [--seconds] have passed and at least {!min_rounds}
    rounds are done. A full major collection runs before every unit,
    and the {!Calib} kernels run between units; the run-time metrics are
    each round's run time in kernel runs, the median over rounds.
    Every unit's simulated results are compared with a reference: the
    pinned file for the default seed, or a re-run under the naive
    engine, outside the timed region, for any other seed. [--trace 1] adds a traced
    round, an observed/unobserved pair, the layer microbenchmarks and
    the ledger, and writes the spans out. See README.md next to this
    file for the workloads and metrics. The last line of standard
    output is one JSON object; the exit code is 1 if any unit's result
    differs from its reference. *)

module Fastpath = Sb_machine.Fastpath
module Json = Sb_telemetry.Json
module Faulty = Sb_protection.Faulty
module Mt = Sb_mt.Mt
module Slices = Tracer.Slices

let default_seed = 1
let min_rounds = 3

(* Paths relative to the root of the checkout, where run.py starts us. *)
let reference_file = "perfbench/reference.tsv"
let trace_dir = ".bench_build/traces"

(* ---------- small statistics and output helpers ---------- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank percentile. *)
let percentile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* A measurement that failed (a microbenchmark whose fit did not
   converge, and everything computed from it) is NaN: it is written as
   null, never as a number. *)
let json_float v = if Float.is_finite v then Json.Float v else Json.Null

(* ---------- host metadata ---------- *)

let host_metadata ~commit =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("engine", Fastpath.current_name ());
    ("ocaml", Sys.ocaml_version);
    ("commit", commit);
  ]

(** Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> fi kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------- references ---------- *)

let load_reference file ~workload =
  let tbl = Hashtbl.create 64 in
  (match open_in file with
   | exception Sys_error e -> Printf.eprintf "perfbench: cannot read reference: %s\n%!" e
   | ic ->
     (try
        while true do
          let l = input_line ic in
          if l <> "" && l.[0] <> '#' then
            match String.split_on_char '\t' l with
            | [ w; id; fp ] when w = workload -> Hashtbl.replace tbl id fp
            | _ -> ()
        done
      with End_of_file -> ());
     close_in ic);
  fun id -> Hashtbl.find_opt tbl id

let naive_reference ~seed units =
  let tbl =
    Fastpath.with_kind Fastpath.Naive (fun () ->
        List.map
          (fun (u : Units.t) ->
             ( u.Units.id,
               match Units.run ~seed u with
               | r -> r.Units.fp
               | exception e -> "exception " ^ Printexc.to_string e ))
          units)
  in
  fun id -> List.assoc_opt id tbl

let write_reference file =
  if Fastpath.kind () <> Fastpath.Naive then begin
    prerr_endline "perfbench: generate the reference under SGXBOUNDS_ENGINE=naive";
    exit 2
  end;
  let oc = open_out file in
  Printf.fprintf oc
    "# perfbench reference: simulated-result fingerprints, seed %d, naive engine.\n\
     # workload<TAB>unit<TAB>fingerprint\n"
    default_seed;
  List.iter
    (fun (w, units) ->
       List.iter
         (fun (u : Units.t) ->
            let r = Units.run ~seed:default_seed u in
            Printf.fprintf oc "%s\t%s\t%s\n%!" w u.Units.id r.Units.fp)
         units)
    Units.workloads;
  close_out oc

(* ---------- rounds ---------- *)

type round = {
  results : (Units.t * (Units.result, string) result) list;
  cal : Calib.t list;  (** per unit: the yardstick around its run *)
  minor_words : float;
  major_collections : int;
}

(** Run every unit once, each after a full major collection.
    {!Calib.sample} runs before the first unit and again whenever
    {!Calib.every_ns} of units have run since the last sample, and at
    the end; every unit gets the mean of the two samples around it. The
    GC figures cover the units only. *)
let run_round ?hooks ~seed ~tr units =
  let minor_words = ref 0. and major_collections = ref 0 in
  let before = ref (Calib.sample ()) in
  (* units since the last sample, most recent first; [done_] likewise *)
  let pending = ref [] and pending_ns = ref 0 and done_ = ref [] in
  let flush () =
    let after = Calib.sample () in
    let cal = Calib.mean !before after in
    done_ := List.map (fun ux -> (ux, cal)) !pending @ !done_;
    before := after;
    pending := [];
    pending_ns := 0
  in
  List.iteri
    (fun i (u : Units.t) ->
       Tracer.set_unit tr i;
       Gc.full_major ();
       let g0 = Gc.quick_stat () and t0 = Tracer.now () in
       let x =
         match Tracer.span tr "unit" (fun () -> Units.run ?hooks ~seed u) with
         | r -> Ok r
         | exception e -> Error (Printexc.to_string e)
       in
       let g1 = Gc.quick_stat () in
       minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
       major_collections := !major_collections + g1.Gc.major_collections - g0.Gc.major_collections;
       pending := (u, x) :: !pending;
       pending_ns := !pending_ns + (Tracer.now () - t0);
       if !pending_ns >= Calib.every_ns then flush ())
    units;
  if !pending <> [] then flush ();
  let results, cal = List.split (List.rev !done_) in
  { results; cal; minor_words = !minor_words; major_collections = !major_collections }

let ok_results r = List.filter_map (fun (_, x) -> Result.to_option x) r.results
let sum f rs = List.fold_left (fun acc x -> acc + f x) 0 rs
let wall_ns rs = sum (fun x -> x.Units.run_ns) rs
let counts rs = List.fold_left (fun c x -> Units.add c x.Units.counts) Units.zero rs

(* Simulated accesses per host second, over the units whose machine is
   visible (the fleet's is not), in M/s. *)
let maccess_per_s rs =
  let with_acc = List.filter (fun x -> x.Units.counts.Units.accesses > 0) rs in
  ratio (fi (counts with_acc).Units.accesses) (fi (wall_ns with_acc)) *. 1e3

(** A round's run time in kernel runs ({!Calib}), over the units that
    [keep] selects: each unit's run time divided by the kernel's time
    around it. *)
let cal_run ?(keep = fun _ -> true) r =
  List.fold_left2
    (fun acc (_, x) cal ->
       match x with
       | Ok x when keep x -> acc +. (fi x.Units.run_ns /. cal.Calib.heap_ns)
       | _ -> acc)
    0. r.results r.cal

(** Simulated accesses per kernel run, in thousands, as [maccess_per_s]. *)
let kaccess_per_cal r =
  let has_acc x = x.Units.counts.Units.accesses > 0 in
  let acc = (counts (List.filter has_acc (ok_results r))).Units.accesses in
  ratio (fi acc) (cal_run ~keep:has_acc r) /. 1e3

(** Set-up time in ns: per unit, the median of all its set-up samples
    over [rounds], summed over units. With [scaled], each sample is
    first scaled to {!Calib.fresh_reference_ns} by the fresh-memory
    kernel's time around its unit. *)
let setup_median ~scaled rounds =
  match rounds with
  | [] -> 0.
  | r0 :: _ ->
    let unit_samples i =
      List.concat_map
        (fun r ->
           let scale =
             if scaled then Calib.fresh_reference_ns /. (List.nth r.cal i).Calib.fresh_ns else 1.
           in
           match snd (List.nth r.results i) with
           | Ok x -> List.map (fun ns -> fi ns *. scale) x.Units.setup_ns
           | Error _ -> [])
        rounds
    in
    List.fold_left ( +. ) 0. (List.init (List.length r0.results) (fun i -> median (unit_samples i)))

(** The median over [rounds] of the round's raw host run time, in ns. *)
let wall_median rounds = median (List.map (fun r -> fi (wall_ns (ok_results r))) rounds)

(** Count units whose result differs from [expect]; report each. *)
let check ~expect rounds =
  List.fold_left
    (fun (attempted, failed) r ->
       List.fold_left
         (fun (attempted, failed) ((u : Units.t), x) ->
            let bad =
              match (x, expect u.Units.id) with
              | Ok res, Some fp when res.Units.fp = fp -> None
              | Ok res, Some fp -> Some (Printf.sprintf "got %s, expected %s" res.Units.fp fp)
              | Ok _, None -> Some "no reference for this unit"
              | Error e, _ -> Some ("unexpected exception " ^ e)
            in
            match bad with
            | None -> (attempted + 1, failed)
            | Some msg ->
              Printf.eprintf "perfbench: MISMATCH %s: %s\n%!" u.Units.id msg;
              (attempted + 1, failed + 1))
         (attempted, failed) r.results)
    (0, 0) rounds

(* ---------- the traced run ---------- *)

(** Run [u] alternately without and with observation (telemetry hub
    for cells, request spans for service phases), [reps] times each;
    returns the ratio of median run times and all fingerprints. *)
let observed_over_unobserved ~seed ~wrap (u : Units.t) ~reps =
  let once observe =
    let r = Units.run ~hooks:{ Units.plain with Units.wrap; observe = Some observe } ~seed u in
    (fi r.Units.run_ns, r.Units.fp)
  in
  let pairs = List.init reps (fun _ -> (once false, once true)) in
  let med f = median (List.map f pairs) in
  ( ratio (med (fun (_, (t, _)) -> t)) (med (fun ((t, _), _) -> t)),
    List.concat_map (fun ((_, a), (_, b)) -> [ a; b ]) pairs )

let traced ~seed ~wrap ~units =
  let tr = Tracer.create ~on:true in
  let sl = Slices.create () in
  let regions = ref 0 in
  Mt.set_region_tracer (Some (fun _ -> incr regions));
  let hooks = { Units.wrap; slices = Some sl; observe = None; tr } in
  let round = Fun.protect ~finally:(fun () -> Mt.set_region_tracer None)
      (fun () -> run_round ~hooks ~seed ~tr units) in
  (round, tr, sl, !regions)

(** Per-layer metrics of the traced run, in the order of BENCHMARK.json. *)
let layer_metrics ~untraced ~(traced : round) ~tr ~sl ~regions ~micro ~observed ~attempted
    ~failed =
  let ms_mean name =
    ratio (fi (Tracer.total tr name)) (fi (List.length (Tracer.durations tr name))) /. 1e6
  in
  let c = counts (ok_results traced) in
  let fam f = Array.get Slices.families f in
  let scheme_rows =
    List.concat_map
      (fun f ->
         let calls = sl.Slices.calls.(f) in
         [
           (Printf.sprintf "scheme.%s.calls" (fam f), fi calls, "count");
           (Printf.sprintf "scheme.%s.ns_per_call" (fam f), ratio (fi sl.Slices.ns.(f)) (fi calls), "ns");
         ])
      [ Slices.access; Slices.ptr; Slices.hoisted; Slices.alloc; Slices.libc ]
  in
  let micro_ns name = (List.assoc name micro).Micro.ns in
  let wall = wall_median untraced in
  let handlers = List.map fi (Tracer.durations tr "handler") in
  let service_ns = fi (Tracer.total tr "service.run") in
  (* the ledger's model: host ns per operation x deterministic counts *)
  let ledger =
    [
      ("L1 hits x memsys.load_same_line_ns", fi c.Units.l1_hits *. micro_ns "memsys.load_same_line_ns");
      ("L1 misses x memsys.load_miss_ns", fi c.Units.l1_misses *. micro_ns "memsys.load_miss_ns");
      ("EPC faults x epc.touch_fault_ns", fi c.Units.epc_faults *. micro_ns "epc.touch_fault_ns");
      ( "scheme.alloc calls x freelist.alloc_free_ns / 2",
        fi sl.Slices.calls.(Slices.alloc) *. micro_ns "freelist.alloc_free_ns" /. 2. );
    ]
  in
  let explained = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. ledger in
  let rows =
    [
      ("host.setup_s", setup_median ~scaled:false untraced /. 1e9, "s");
      ("host.wall_s", wall /. 1e9, "s");
      ("host.sim_maccess_per_s", median (List.map (fun r -> maccess_per_s (ok_results r)) untraced), "Maccess/s");
      ("calib.heap_kernel_ms", median (List.concat_map (fun r -> List.map (fun c -> c.Calib.heap_ns) r.cal) untraced) /. 1e6, "ms");
      ("calib.fresh_kernel_ms", median (List.concat_map (fun r -> List.map (fun c -> c.Calib.fresh_ns) r.cal) untraced) /. 1e6, "ms");
      ("memsys.create_ms", ms_mean "memsys.create", "ms");
      ("scheme.make_ms", ms_mean "scheme.make", "ms");
      ("app.preload_ms", ms_mean "app.preload", "ms");
    ]
    @ scheme_rows
    @ [
      ("workloads.self_ns", fi sl.Slices.ns.(Slices.self), "ns");
      ("scheme.checks_done", fi c.Units.checks_done, "count");
      ("scheme.checks_hoisted", fi c.Units.checks_hoisted, "count");
      ("scheme.checks_elided", fi c.Units.checks_elided, "count");
      ("memsys.accesses", fi c.Units.accesses, "count");
      ("memsys.meta_share", ratio (fi c.Units.meta_accesses) (fi c.Units.accesses), "ratio");
      ("cache.l1_miss_ratio", ratio (fi c.Units.l1_misses) (fi (c.Units.l1_hits + c.Units.l1_misses)), "ratio");
      ("cache.llc_misses", fi c.Units.llc_misses, "count");
      ("epc.faults", fi c.Units.epc_faults, "count");
      ("epc.evictions", fi c.Units.epc_evictions, "count");
    ]
    @ List.map (fun (name, e) -> (name, e.Micro.ns, "ns")) micro
    @ [
      ("micro.r2_min", List.fold_left (fun acc (_, e) -> Float.min acc e.Micro.r2) 1. micro, "ratio");
      ("trace.fused_ratio", ratio (fi c.Units.fused) (fi c.Units.accesses), "ratio");
      ("mt.regions", fi regions, "count");
      ("service.handler_p50_us", percentile 0.50 handlers /. 1e3, "us");
      ("service.handler_p99_us", percentile 0.99 handlers /. 1e3, "us");
      ("service.self_share", ratio (service_ns -. List.fold_left ( +. ) 0. handlers) service_ns, "ratio");
      ( "service.sim_kreq_per_s",
        ratio (fi c.Units.requests) wall *. 1e6,
        "kreq/s" );
      ("fleet.run_s", fi (Tracer.total tr "fleet.run") /. 1e9, "s");
      ("telemetry.observed_over_unobserved", observed, "ratio");
      ( "gc.minor_words_per_access",
        median (List.map (fun r -> ratio r.minor_words (fi (counts (ok_results r)).Units.accesses)) untraced),
        "words" );
      ("gc.major_collections", median (List.map (fun r -> fi r.major_collections) untraced), "count");
      ("ledger.unexplained_share", 1. -. ratio explained wall, "ratio");
      ("tracing.overhead", ratio (fi (wall_ns (ok_results traced))) wall, "ratio");
      ("error_rate", ratio (fi failed) (fi attempted), "ratio");
    ]
  in
  (rows, ledger, wall)

let write_trace ~dir ~workload ~seed ~host ~rows ~micro ~tr ~(units : Units.t list) =
  (try Sys.mkdir (Filename.dirname dir) 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Filename.concat dir (Printf.sprintf "%s-seed%d.json" workload seed) in
  let span ((sp : Tracer.span), self_ns) =
    Json.Obj
      [
        ("id", Json.Int sp.Tracer.id);
        ("name", Json.Str sp.Tracer.name);
        ("unit", Json.Int sp.Tracer.unit_id);
        ("parent", Json.Int sp.Tracer.parent);
        ("start_ns", Json.Int sp.Tracer.start);
        ("end_ns", Json.Int sp.Tracer.stop);
        ("self_ns", Json.Int self_ns);
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Int seed);
        ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) host));
        ("units", Json.List (List.map (fun (u : Units.t) -> Json.Str u.Units.id) units));
        ("metrics", Json.Obj (List.map (fun (n, v, _) -> (n, json_float v)) rows));
        ("micro_r2", Json.Obj (List.map (fun (n, e) -> (n, json_float e.Micro.r2)) micro));
        ("spans", Json.List (List.map span (Tracer.self_times tr)));
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  file

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  let write_ref = ref false and inject = ref "" in
  let commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Units.workload_names);
      ("--seed", Arg.Set_int seed, Printf.sprintf " input seed (default %d, the pinned one)" default_seed);
      ("--seconds", Arg.Set_float seconds, " length of the measured phase");
      ("--trace", Arg.Set_int trace, " 1: add the traced run and print the per-layer metrics");
      ("--write-reference", Arg.Set write_ref, " regenerate " ^ reference_file);
      ( "--inject",
        Arg.Set_string inject,
        " wrap every scheme with a fault (" ^ String.concat "|" Faulty.fault_names ^ ")" );
      ("--commit", Arg.Set_string commit, " commit id recorded with the result");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !write_ref then (write_reference reference_file; exit 0);
  let units =
    match List.assoc_opt !workload Units.workloads with
    | Some u -> u
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (valid: %s)\n" !workload
        (String.concat ", " Units.workload_names);
      exit 2
  in
  let wrap =
    match !inject with
    | "" -> Fun.id
    | f -> (
        match Faulty.fault_of_string f with
        | Some fault -> Faulty.inject fault
        | None ->
          Printf.eprintf "perfbench: unknown fault %S\n" f;
          exit 2)
  in
  let seed = !seed in
  let host = host_metadata ~commit:!commit in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d %s\n%!" !workload seed !seconds !trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
  (* measured phase *)
  let hooks = { Units.plain with Units.wrap } in
  let t0 = Tracer.now () in
  let rec measure acc =
    let elapsed = fi (Tracer.now () - t0) /. 1e9 in
    if List.length acc >= min_rounds && elapsed >= !seconds then List.rev acc
    else begin
      let r = run_round ~hooks ~seed ~tr:Tracer.off units in
      Printf.printf
        "round %d: setup %.3f ms, run %.3f s, %.2f M sim-accesses/s, kernels %.3f/%.3f ms, run %.1f cal\n%!"
        (List.length acc + 1) (setup_median ~scaled:false [ r ] /. 1e6) (fi (wall_ns (ok_results r)) /. 1e9)
        (maccess_per_s (ok_results r))
        (median (List.map (fun c -> c.Calib.heap_ns) r.cal) /. 1e6)
        (median (List.map (fun c -> c.Calib.fresh_ns) r.cal) /. 1e6)
        (cal_run r);
      measure (r :: acc)
    end
  in
  let rounds = measure [] in
  let rss = peak_rss_mb () in
  (* correctness: pinned reference for the default seed, else naive re-run *)
  let expect =
    if seed = default_seed then load_reference reference_file ~workload:!workload
    else naive_reference ~seed units
  in
  let e2e =
    [
      ("setup_s", setup_median ~scaled:true rounds /. 1e9, "s");
      ("run_cal", median (List.map cal_run rounds), "cal");
      ("sim_kaccess_per_cal", median (List.map kaccess_per_cal rounds), "kaccess/cal");
      ("peak_rss_mb", rss, "MB");
    ]
  in
  let attempted, failed, metrics =
    if !trace = 0 then begin
      let attempted, failed = check ~expect rounds in
      (attempted, failed, e2e)
    end
    else begin
      let traced_round, tr, sl, regions = traced ~seed ~wrap ~units in
      let obs_unit =
        match List.find_opt (fun (u : Units.t) -> Filename.basename u.Units.id = "sgxbounds") units with
        | Some u -> u
        | None -> List.hd units
      in
      let observed, obs_fps = observed_over_unobserved ~seed ~wrap obs_unit ~reps:3 in
      let micro = Micro.run () in
      let attempted, failed = check ~expect (rounds @ [ traced_round ]) in
      let obs_bad = List.length (List.filter (fun fp -> Some fp <> expect obs_unit.Units.id) obs_fps) in
      if obs_bad > 0 then Printf.eprintf "perfbench: MISMATCH %s under observation\n%!" obs_unit.Units.id;
      let no_fit = List.filter (fun (_, e) -> not (Float.is_finite e.Micro.ns)) micro in
      List.iter (fun (name, _) -> Printf.eprintf "perfbench: FAILED FIT %s\n%!" name) no_fit;
      let attempted = attempted + List.length obs_fps + List.length micro
      and failed = failed + obs_bad + List.length no_fit in
      let rows, ledger, wall =
        layer_metrics ~untraced:rounds ~traced:traced_round ~tr ~sl ~regions ~micro ~observed
          ~attempted ~failed
      in
      List.iter
        (fun (name, e) ->
           Printf.printf "micro %-26s %10.1f ns/op  r2=%.4f\n" name e.Micro.ns e.Micro.r2)
        micro;
      List.iter
        (fun (term, ns) -> Printf.printf "ledger %-48s %6.1f%% of wall\n" term (100. *. ratio ns wall))
        ledger;
      let file = write_trace ~dir:trace_dir ~workload:!workload ~seed ~host ~rows ~micro ~tr ~units in
      Printf.printf "spans written to %s\n" file;
      (attempted, failed, rows)
    end
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-36s %16.6g %s\n" n v u)
    (if !trace = 0 then metrics else e2e @ metrics);
  Printf.printf "error_rate %d/%d\n" failed attempted;
  (* Printed by hand rather than with [Json.to_string], which rounds
     floats to 6 significant digits: each value carries all its digits. *)
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Json.escape n) (value v)
               (Json.escape u))
          metrics));
  exit (if failed = 0 then 0 else 1)
