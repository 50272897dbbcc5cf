(** Engine agreement: every workload × scheme of the harness line-up,
    run to completion under the naive and the fast memory engine, with
    all simulated metrics compared structurally (cycles, instrs,
    accesses, cache, EPC, attribution, checks, violations, and the crash
    identity of cells that die, like MPX out of enclave memory).

    The agreed cells are committed as [results/engine_agreement.tsv],
    one row per cell, so a simulated number that moves names its cell;
    an order-sensitive fingerprint of the same numbers gives a one-line
    summary. *)

module Fastpath = Sb_machine.Fastpath
module Registry = Sb_workloads.Registry
module Tsv = Sb_telemetry.Tsv

(** Every workload × every scheme, each at [default_n / divisor] (at
    least 64). *)
let cells ~divisor =
  List.concat_map
    (fun (w : Registry.spec) ->
       let n = max 64 (w.Registry.default_n / divisor) in
       List.map (fun scheme -> (w, scheme, n)) Harness.scheme_names)
    Registry.all

(** Run [cells] under each engine (the engine is sampled when each
    machine is built, so the whole grid runs inside [with_kind]), fanned
    across [jobs] domains. Returns the naive results and the
    [(workload, scheme)] cells whose outcomes differ. *)
let sweep ?jobs cells =
  let run kind =
    Fastpath.with_kind kind (fun () ->
        Parallel_runner.map_list ?jobs
          (fun ((w : Registry.spec), scheme, n) -> Harness.run_one ~n ~scheme w)
          cells)
  in
  let naive = run Fastpath.Naive in
  let fast = run Fastpath.Fast in
  let mismatches =
    List.filter_map
      (fun ((rn : Harness.result), (rf : Harness.result)) ->
         if rn.Harness.outcome = rf.Harness.outcome then None
         else Some (rn.Harness.workload, rn.Harness.scheme))
      (List.combine naive fast)
  in
  (naive, mismatches)

(* The fingerprinted metrics, in fingerprint order. *)
let metrics = [ "cycles"; "instrs"; "mem_accesses"; "llc_misses"; "epc_faults";
                "checks_done"; "violations" ]

let values (r : Harness.result) =
  match r.Harness.outcome with
  | Harness.Crashed msg -> Error msg
  | Harness.Completed m ->
    Ok Harness.[ m.cycles; m.instrs; m.mem_accesses; m.llc_misses; m.epc_faults;
                 m.checks_done; m.violations ]

let fingerprint results =
  let mix h v = ((h * 1000003) lxor v) land max_int in
  List.fold_left
    (fun h r ->
       match values r with Error _ -> mix h 1 | Ok vs -> List.fold_left mix h vs)
    0x9e3779b9 results

(** [results/engine_agreement.tsv]; a crashed cell carries zeros and its
    reason. *)
let schema =
  Tsv.schema "engine_agreement"
    ([ ("workload", Tsv.Text); ("scheme", Tsv.Text); ("n", Tsv.Nat 1) ]
     @ List.map (fun c -> (c, Tsv.Nat 0)) metrics
     @ [ ("status", Tsv.Status) ])

let row (r : Harness.result) =
  let vs, status =
    match values r with
    | Ok vs -> (vs, "ok")
    | Error msg -> (List.map (fun _ -> 0) metrics, "crashed: " ^ msg)
  in
  [ r.Harness.workload; r.Harness.scheme; string_of_int r.Harness.n ]
  @ List.map string_of_int vs @ [ status ]
