(** The Figure 13 throughput–latency experiment: sweep offered rate per
    (app, scheme, environment) cell, one fresh machine per cell, fanned
    across domains by {!Sb_harness.Parallel_runner}.

    Each cell is self-contained and deterministic, so results are
    identical for any [--jobs] and for either memory engine; machines are
    retired into {!Sb_machine.Pool} after each cell so a sweep recycles
    its big arrays instead of re-faulting fresh ones. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Wctx = Sb_workloads.Wctx
module Profile = Sb_telemetry.Profile
module Tsv = Sb_telemetry.Tsv
open Sb_protection.Types

type cell = {
  app : Drivers.app;
  scheme : string;
  env : Config.env;
  cfg : Service.config;
}

type point = {
  pt_app : string;
  pt_scheme : string;
  pt_env : Config.env;
  pt_rate : float;
  pt_outcome : (Service.stats, string) result;
  (* machine-level views captured before the cell's machine is retired *)
  pt_attr : (Memsys.access_class * Memsys.class_stat) list;
  pt_compute : int;
  pt_spans : Spans.log option;  (** request exemplars when traced *)
}

(** Run one cell on a fresh machine; the machine is retired to the pool
    afterwards. Scheme setup or serving crashes become [Error].
    [spans], when given, traces every request and keeps the [spans]
    slowest as exemplars in [pt_spans] (observation only — stats are
    unchanged). The machine's per-class cycle attribution is always
    captured into [pt_attr]/[pt_compute]. *)
let run_cell ?spans (c : cell) =
  let ms = Memsys.create (Config.default ~env:c.env ()) in
  let log =
    Option.map (fun cap -> Spans.create ~cap ~workers:c.cfg.Service.workers ()) spans
  in
  let outcome =
    match
      let s = Harness.maker c.scheme ms in
      let ctx = Wctx.make ~seed:c.cfg.Service.seed ~threads:c.cfg.Service.workers s in
      let handler = Drivers.make c.app ctx ~workers:c.cfg.Service.workers in
      Service.run ?trace:log ms c.cfg handler
    with
    | st -> Ok st
    | exception App_crash msg -> Error msg
    | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
    | exception Violation v -> Error (Fmt.str "%a" pp_violation v)
  in
  let attr = Memsys.attribution ms in
  let compute = Memsys.compute_cycles ms in
  Memsys.retire ms;
  {
    pt_app = Drivers.name c.app;
    pt_scheme = c.scheme;
    pt_env = c.env;
    pt_rate = c.cfg.Service.rate_rps;
    pt_outcome = outcome;
    pt_attr = attr;
    pt_compute = compute;
    pt_spans = log;
  }

(** Profile an app handler: serve [requests] back-to-back requests on
    one worker with a site-attributed profiler attached to the machine —
    scheme operations are "op:<name>" sites
    ({!Sb_protection.Profiled.wrap}), server construction and preload
    run under "setup", each request under "request". No load generator:
    this isolates where a request's cycles go, which is what
    [profile --diff] compares between schemes. *)
let profile_app ?(env = Config.Inside_enclave) ?(requests = 200) ?(seed = 1) ~app
    ~scheme () =
  let cfg = Config.default ~env () in
  let ms = Memsys.create cfg in
  let prof =
    Profile.create ~max_threads:cfg.Config.max_threads ~buckets:Memsys.profile_buckets ()
  in
  Memsys.attach_profiler ms prof;
  let site_setup = Profile.intern prof "setup" in
  let site_req = Profile.intern prof "request" in
  let outcome =
    match
      let handler =
        Profile.with_site prof site_setup (fun () ->
            let s = Sb_protection.Profiled.wrap prof (Harness.maker scheme ms) in
            Drivers.make app (Wctx.make ~seed s) ~workers:1)
      in
      for _ = 1 to requests do
        Profile.with_site prof site_req (fun () -> handler ~worker:0)
      done
    with
    | () -> Ok prof
    | exception App_crash msg -> Error msg
    | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
    | exception Violation v -> Error (Fmt.str "%a" pp_violation v)
  in
  Memsys.retire ms;
  outcome

(** Closed-loop capacity estimate for calibrating a sweep: offer the
    whole schedule at once (every arrival at t=0, queue deep enough to
    hold it) and measure completions per second — the server's peak
    service rate with no idle gaps. *)
let capacity ~app ~scheme ~env ~workers ~requests ~seed =
  let cfg =
    {
      Service.workers;
      queue_cap = max 1 requests;
      requests;
      rate_rps = 1e15;
      process = Loadgen.Fixed;
      seed;
    }
  in
  let pt = run_cell { app; scheme; env; cfg } in
  match pt.pt_outcome with
  | Ok st -> Some (Service.throughput_rps st)
  | Error _ -> None

(** Run [cells] across [jobs] domains; results in cell order. *)
let sweep ?jobs cells = Parallel_runner.map_list ?jobs run_cell cells

(* ---------- TSV export ---------- *)

(** [results/fig13_latency.tsv]: one row per (app, scheme, rate) point. *)
let tsv_schema =
  let count c = (c, Tsv.Nat 0) in
  Tsv.schema "fig13_latency"
    [ ("app", Tsv.Text); ("scheme", Tsv.Text);
      ( "env",
        Tsv.One_of
          (List.map Harness.env_name [ Config.Outside_enclave; Config.Inside_enclave ]) );
      ("offered_rps", Tsv.Num (0., infinity)); ("throughput_rps", Tsv.Num (0., infinity));
      count "offered"; count "completed"; count "dropped"; count "max_queue";
      count "p50_cycles"; count "p95_cycles"; count "p99_cycles";
      ("mean_cycles", Tsv.Num (0., infinity)); count "max_cycles"; ("status", Tsv.Status) ]

let tsv_row (p : point) =
  let fields =
    match p.pt_outcome with
    | Error msg -> List.init 10 (fun _ -> "0") @ [ "crashed: " ^ msg ]
    | Ok st ->
      let s = Service.summary st in
      [ Printf.sprintf "%.0f" (Service.throughput_rps st)
      ; string_of_int st.Service.offered; string_of_int st.Service.completed
      ; string_of_int st.Service.dropped; string_of_int st.Service.max_queue
      ; string_of_int s.Latency.p50; string_of_int s.Latency.p95
      ; string_of_int s.Latency.p99; Printf.sprintf "%.0f" s.Latency.mean
      ; string_of_int s.Latency.max; "ok" ]
  in
  [ p.pt_app; p.pt_scheme; Harness.env_name p.pt_env; Printf.sprintf "%.0f" p.pt_rate ]
  @ fields
