(** Fex-style evaluation framework (the paper runs all experiments with
    Fex [Oleksenko et al., DSN'17]: declarative experiment matrices,
    repeated runs, normalized results, machine-readable output).

    An {!experiment} is a matrix of (workload × scheme × environment ×
    threads × input size). {!run} executes every cell on a fresh machine,
    {!normalize} folds the raw cells into baseline-relative rows, and the
    writers emit TSV (plot-ready, one file per experiment) and gnuplot
    scripts so each paper figure can be redrawn outside the terminal.

    The simulator is deterministic, so [repetitions] exists for API
    compatibility with the original workflow (variance is exactly zero);
    a {!check_deterministic} helper asserts that property instead of
    averaging noise away. *)

type cell = {
  workload : string;
  scheme : string;
  env : Sb_machine.Config.env;
  threads : int;
  n : int option;            (** input-size override *)
}

type experiment = {
  name : string;
  description : string;
  cells : cell list;
  baseline_scheme : string;  (** rows are normalized against this scheme *)
}

type measurement = {
  cell : cell;
  outcome : Sb_harness.Harness.outcome;
}

type normalized_row = {
  row_workload : string;
  row_scheme : string;
  perf_x : float option;     (** None = crashed *)
  mem_x : float option;
  llc_miss_x : float option;
  epc_fault_x : float option;
}

(** Build the full cartesian matrix for an experiment. *)
val matrix :
  name:string -> description:string -> baseline:string ->
  workloads:string list -> schemes:string list ->
  ?envs:Sb_machine.Config.env list -> ?threads:int list ->
  ?sizes:int option list -> unit -> experiment

(** Execute every cell (each on a fresh simulated machine), fanned
    across [jobs] domains (default 1); results are in cell order and
    identical for every [jobs]. *)
val run : ?jobs:int -> experiment -> measurement list

(** Re-run a sample cell [repetitions] times and verify bit-identical
    results; returns the number of repetitions checked.
    @raise Failure if any repetition diverges. *)
val check_deterministic : ?repetitions:int -> experiment -> int

(** Fold measurements into baseline-normalized rows (per workload ×
    non-baseline scheme, within the same env/threads/size). *)
val normalize : experiment -> measurement list -> normalized_row list

(** Geometric means of the defined [perf_x] per scheme. *)
val gmeans : normalized_row list -> (string * float) list

(** The overhead tables' schema ([results/fig7_phoenix_parsec.tsv],
    [results/fig11_spec.tsv]): workload, scheme and four ratios over the
    baseline, ["-"] for a crashed cell. *)
val schema : Sb_telemetry.Tsv.t

(** Render rows as TSV: header then one line per row ("-" = crash). *)
val to_tsv : normalized_row list -> string

(** A gnuplot script that plots the TSV written next to it as a grouped
    bar chart, one bar group per workload. *)
val gnuplot_script : experiment -> data_file:string -> string

(** Write [experiment.name].tsv and [experiment.name].gp under [dir]
    (created if missing); returns the TSV path. *)
val write_results : dir:string -> experiment -> normalized_row list -> string
