(** Deterministic perf-score gate: a host-noise-free proxy for the
    simulator's own speed, built only from quantities that are a pure
    function of the code — simulated work (memory accesses + retired
    instructions) and OCaml allocation words ([Gc.allocated_bytes]
    deltas). No wall clock anywhere, so the score is bit-identical
    across runs on the same build and comparable across machines.

    Why allocation words: in an OCaml simulator the allocation rate per
    unit of simulated work is the dominant, deterministic component of
    host cost — a change that makes the hot path box values or rebuild
    closures shows up here exactly, every run, while wall-clock
    measurements of the same change drown in scheduler noise. The
    simulated-work denominator pins the other half: a change that makes
    the machine do *more* simulated work for the same kernel moves the
    per-kernel [accesses]/[instrs] fields, which the gate also reports.

    Each kernel runs once as warm-up (faults in lazy state, grows hash
    tables, fills the machine pools) and once measured; the score is
    allocation words per 1000 units of simulated work. Scores are only
    comparable between runs at the {e same} input scale — fixed setup
    allocation amortizes differently over smoke and full inputs — so
    the document records its scale and {!gate} refuses a cross-scale
    comparison, exactly like an engine mismatch.

    The gate is two-sided: an unexplained {e improvement} beyond
    tolerance fails just like a regression, because it means the
    committed baseline no longer describes the build and must be
    regenerated — silent drift in either direction erodes what the
    gate can prove.

    [SGXBOUNDS_SCORE_PERTURB=<pct>] perturbs the measured allocation by
    [pct] percent — positive values through real allocations inside the
    measured window (riding the same path a genuine regression would),
    negative values by deflating the measured delta (drift injection; no
    way to un-allocate). The hook check.sh uses to prove the gate fails
    on deliberate movement in both directions. *)

module Config = Sb_machine.Config
module Fastpath = Sb_machine.Fastpath
module Rng = Sb_machine.Rng
module Vmem = Sb_vmem.Vmem
module Memsys = Sb_sgx.Memsys
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Wctx = Sb_workloads.Wctx
module Json = Sb_telemetry.Json

type sample = { s_accesses : int; s_instrs : int; s_cycles : int }

type measurement = {
  m_kernel : string;
  m_accesses : int;      (** simulated memory accesses of the measured run *)
  m_instrs : int;        (** simulated ALU instructions of the measured run *)
  m_cycles : int;        (** simulated cycles (behaviour fingerprint) *)
  m_alloc_words : int;   (** OCaml words allocated during the measured run *)
  m_score : int;         (** allocation words per 1000 units of simulated work *)
}

let version = 1
let word_bytes = Sys.word_size / 8
let engine () = Fastpath.current_name ()

(** [Gc.allocated_bytes]'s unit is not the same on every runtime (this
    one reports words); calibrate once against a known allocation — 64k
    [ref]s = 128k words — instead of trusting the documentation. *)
let units_per_word =
  lazy
    (Gc.full_major ();
     let before = Gc.allocated_bytes () in
     let sink = ref 0 in
     for i = 1 to 65536 do
       sink := !(Sys.opaque_identity (ref i))
     done;
     ignore (Sys.opaque_identity !sink);
     let delta = Gc.allocated_bytes () -. before in
     max 1 (int_of_float ((delta /. 131072.) +. 0.5)))

let perturb_pct () =
  match Sys.getenv_opt "SGXBOUNDS_SCORE_PERTURB" with
  | None -> 0
  | Some s -> (match int_of_string_opt (String.trim s) with
               | Some v when v > -100 -> v
               | _ -> 0)

let work s = max 1 (s.s_accesses + s.s_instrs)

(** Warm up, then measure one kernel. The perturbation (when requested)
    allocates [pct]% of the kernel's own measured words *inside* the
    measured window, so it rides the same path a real regression
    would. *)
let measure (name, f) =
  let upw = Lazy.force units_per_word in
  ignore (f ());
  (* Empty the minor heap before opening the window: [allocated_bytes]
     subtracts promoted words, so survivors of *earlier* work being
     promoted mid-window would otherwise deflate this kernel's delta. *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let sim = f () in
  let p = perturb_pct () in
  if p > 0 then begin
    (* allocate p% of the kernel's own measured allocation on top,
       self-calibrating: loop until the counter says we got there *)
    let mid = Gc.allocated_bytes () in
    let target = (mid -. before) *. float_of_int p /. 100. in
    let sink = ref 0 in
    while Gc.allocated_bytes () -. mid < target do
      sink := !(Sys.opaque_identity (ref !sink))
    done;
    ignore (Sys.opaque_identity !sink)
  end;
  let after = Gc.allocated_bytes () in
  let measured = after -. before in
  (* Negative perturbation deflates the measured delta arithmetically:
     allocation cannot be taken back, and the hook only needs the gate
     to see a too-good-to-be-true number. *)
  let measured =
    if p < 0 then measured *. (1. +. (float_of_int p /. 100.)) else measured
  in
  let alloc_words = int_of_float (measured /. float_of_int upw) in
  {
    m_kernel = name;
    m_accesses = sim.s_accesses;
    m_instrs = sim.s_instrs;
    m_cycles = sim.s_cycles;
    m_alloc_words = alloc_words;
    m_score = alloc_words * 1000 / work sim;
  }

(* ---------- kernels ---------- *)

let sample_of_ms ms =
  let snap = Memsys.snapshot ms in
  {
    s_accesses = snap.Memsys.mem_accesses;
    s_instrs = snap.Memsys.instrs;
    s_cycles = snap.Memsys.cycles;
  }

(** Raw engine speed: a deterministic access mix straight on one
    [Memsys] — hot-word hammering (the same-line fast paths), byte
    scans, random loads (miss + EPC traffic) and bulk fill/blit. *)
let access_mix ~rounds () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let buf_len = 128 * 1024 in
  let buf = Vmem.map vm ~len:buf_len ~perm:Vmem.Read_write () in
  let words = buf_len / 8 in
  let rng = Rng.create 42 in
  for r = 1 to rounds do
    for i = 1 to 4096 do
      let v = Memsys.load ms ~addr:buf ~width:8 in
      Memsys.store ms ~addr:buf ~width:8 (v + i)
    done;
    for b = 0 to 8191 do
      ignore (Memsys.load ms ~addr:(buf + b) ~width:1)
    done;
    for _ = 1 to 2048 do
      let w = Rng.int rng words in
      ignore (Memsys.load ms ~addr:(buf + (w * 8)) ~width:8)
    done;
    Memsys.fill ms ~addr:buf ~len:8192 ~byte:(r land 0xff);
    Memsys.blit ms ~src:buf ~dst:(buf + 65536) ~len:8192
  done;
  let s = sample_of_ms ms in
  Memsys.retire ms;
  s

let sample_of_result (r : Harness.result) =
  match r.Harness.outcome with
  | Harness.Completed m ->
    {
      s_accesses = m.Harness.mem_accesses;
      s_instrs = m.Harness.instrs;
      s_cycles = m.Harness.cycles;
    }
  | Harness.Crashed msg ->
    failwith (Printf.sprintf "score kernel %s/%s crashed: %s" r.Harness.workload
                r.Harness.scheme msg)

(** Full harness path: workload under a scheme on a fresh machine. *)
let workload_kernel ~wname ~scheme ~n () =
  sample_of_result (Harness.run_one ~scheme ~n (Registry.find wname))

(** The profiling path itself: same cell with a site-attributed profiler
    attached — pins the observability layer's own host cost. *)
let profiled_kernel ~wname ~scheme ~n () =
  let r, _prof = Harness.run_profiled ~scheme ~n (Registry.find wname) in
  sample_of_result r

(** The service layer: open-loop memcached cell, spans traced — covers
    the scheduler, the request drivers and the span reservoir. *)
let serve_kernel ~requests () =
  let ms = Memsys.create (Config.default ()) in
  let cfg =
    {
      Service.workers = 2;
      queue_cap = 32;
      requests;
      rate_rps = 100_000.;
      process = Loadgen.Poisson;
      seed = 1;
    }
  in
  let s = Harness.maker "sgxbounds" ms in
  let ctx = Wctx.make ~seed:1 ~threads:cfg.Service.workers s in
  let handler = Drivers.make Drivers.Memcached ctx ~workers:cfg.Service.workers in
  let log = Spans.create ~cap:8 ~workers:cfg.Service.workers () in
  ignore (Service.run ~trace:log ms cfg handler);
  let s = sample_of_ms ms in
  Memsys.retire ms;
  s

(** The kernel line-up, one per layer of the stack. Smoke shrinks the
    inputs ~4x; the score is intensive, so smoke and full runs of the
    same build agree within the gate's tolerance. *)
let kernels ~smoke =
  let d = if smoke then 4 else 1 in
  [
    ("access-mix/native", access_mix ~rounds:(max 1 (4 / d)));
    ("kmeans/sgxbounds", workload_kernel ~wname:"kmeans" ~scheme:"sgxbounds" ~n:(2048 / d));
    ("mcf/asan", workload_kernel ~wname:"mcf" ~scheme:"asan" ~n:(8192 / d));
    ("memcached/serve", serve_kernel ~requests:(400 / d));
    ("kmeans/profiled", profiled_kernel ~wname:"kmeans" ~scheme:"sgxbounds" ~n:(2048 / d));
  ]

let measure_all ~smoke = List.map measure (kernels ~smoke)

let total ms = List.fold_left (fun a m -> a + m.m_score) 0 ms

(* ---------- JSON document with trend ---------- *)

let json_of_measurement m =
  Json.Obj
    [
      ("kernel", Json.Str m.m_kernel);
      ("accesses", Json.Int m.m_accesses);
      ("instrs", Json.Int m.m_instrs);
      ("cycles", Json.Int m.m_cycles);
      ("alloc_words", Json.Int m.m_alloc_words);
      ("score", Json.Int m.m_score);
    ]

(** Build the BENCH document. [prev] is the previously committed
    document (if any): its trend array is carried over, minus any entry
    with the same label — so re-running with an unchanged build and the
    same label reproduces the file byte for byte. *)
let doc ~smoke ~label ~prev ms =
  let entry =
    Json.Obj
      [
        ("label", Json.Str label);
        ("score_total", Json.Int (total ms));
        ( "kernels",
          Json.Obj (List.map (fun m -> (m.m_kernel, Json.Int m.m_score)) ms) );
      ]
  in
  let carried =
    match prev with
    | None -> []
    | Some j ->
      (match Json.member "trend" j with
       | Some (Json.List l) ->
         List.filter
           (fun e ->
              match Json.member "label" e with
              | Some (Json.Str l) -> l <> label
              | _ -> true)
           l
       | _ -> [])
  in
  Json.Obj
    [
      ("bench", Json.Str "score");
      ("version", Json.Int version);
      ("engine", Json.Str (engine ()));
      ("smoke", Json.Bool smoke);
      ("word_bytes", Json.Int word_bytes);
      ("kernels", Json.List (List.map json_of_measurement ms));
      ("score_total", Json.Int (total ms));
      ("trend", Json.List (carried @ [ entry ]));
    ]

(** Check that [j] has the shape {!doc} writes: a known engine, a
    numeric [score_total], a non-empty [kernels] array of named integer
    scores and a non-empty [trend]. The check [sgxbounds_cli
    validate-bench] runs on a JSON file. *)
let validate j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "bench" j with
    | Some (Json.Str "score") -> Ok ()
    | Some (Json.Str b) -> Error (Printf.sprintf "unknown bench kind %S" b)
    | _ -> Error "not a `bench score' document (no \"bench\": \"score\")"
  in
  let* () =
    match Json.member "engine" j with
    | Some (Json.Str e) when Fastpath.kind_of_string e <> None -> Ok ()
    | Some (Json.Str e) -> Error (Printf.sprintf "unknown engine %S (expected naive or fast)" e)
    | _ -> Error "missing string key \"engine\""
  in
  let* () =
    match Json.member "score_total" j with
    | Some (Json.Int _ | Json.Float _) -> Ok ()
    | _ -> Error "missing numeric key \"score_total\""
  in
  let* () =
    match Json.member "kernels" j with
    | Some (Json.List (_ :: _ as ks)) ->
      if
        List.for_all
          (fun k ->
             match (Json.member "kernel" k, Json.member "score" k) with
             | Some (Json.Str _), Some (Json.Int _) -> true
             | _ -> false)
          ks
      then Ok ()
      else Error "malformed kernel entry"
    | _ -> Error "missing or empty \"kernels\" array"
  in
  match Json.member "trend" j with
  | Some (Json.List (_ :: _)) -> Ok ()
  | _ -> Error "missing or empty \"trend\" array"

(* ---------- the gate ---------- *)

type verdict = {
  v_kernel : string;
  v_old : int;
  v_new : int;
  v_regressed : bool;  (** new > old beyond tolerance (higher = worse) *)
  v_improved : bool;
      (** new < old beyond tolerance — also a gate failure: the
          committed baseline is stale and must be regenerated *)
}

(** Compare a fresh run against a committed baseline document. Fails
    (Error) when the comparison itself is meaningless: engine or input
    scale (smoke vs full) mismatch, or no kernel in common. A kernel
    only present on one side is skipped — renaming kernels updates the
    baseline, it does not break the gate. *)
let gate ~smoke ~tolerance_pct ~baseline ms =
  let this_engine = engine () in
  match Json.member "engine" baseline with
  | None -> Error "baseline has no \"engine\" key — not a `bench score' document"
  | Some (Json.Str e) when e <> this_engine ->
    Error
      (Printf.sprintf
         "engine mismatch: baseline measured on %S, this run on %S — regenerate \
          the baseline under the same engine" e this_engine)
  | Some _ when
      (match Json.member "smoke" baseline with
       | Some (Json.Bool b) -> b <> smoke
       | _ -> false) ->
    Error
      (Printf.sprintf
         "input-scale mismatch: baseline is a %s run, this is a %s run — scores \
          only compare at equal scale"
         (if smoke then "full" else "smoke")
         (if smoke then "smoke" else "full"))
  | Some _ ->
    let bkernels =
      match Json.member "kernels" baseline with Some (Json.List l) -> l | _ -> []
    in
    let old_of name =
      List.find_map
        (fun k ->
           match (Json.member "kernel" k, Json.member "score" k) with
           | Some (Json.Str n), Some s when n = name -> Json.to_int s
           | _ -> None)
        bkernels
    in
    let verdicts =
      List.filter_map
        (fun m ->
           Option.map
             (fun old ->
                let slack = max 1 (old * tolerance_pct / 100) in
                {
                  v_kernel = m.m_kernel;
                  v_old = old;
                  v_new = m.m_score;
                  v_regressed = m.m_score > old + slack;
                  v_improved = m.m_score < old - slack;
                })
             (old_of m.m_kernel))
        ms
    in
    if verdicts = [] then
      Error "baseline shares no kernels with this run — regenerate it"
    else Ok verdicts
