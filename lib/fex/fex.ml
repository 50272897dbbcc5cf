module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config
module Parallel_runner = Sb_harness.Parallel_runner
module Tsv = Sb_telemetry.Tsv

type cell = {
  workload : string;
  scheme : string;
  env : Config.env;
  threads : int;
  n : int option;
}

type experiment = {
  name : string;
  description : string;
  cells : cell list;
  baseline_scheme : string;
}

type measurement = {
  cell : cell;
  outcome : Harness.outcome;
}

type normalized_row = {
  row_workload : string;
  row_scheme : string;
  perf_x : float option;
  mem_x : float option;
  llc_miss_x : float option;
  epc_fault_x : float option;
}

let matrix ~name ~description ~baseline ~workloads ~schemes
    ?(envs = [ Config.Inside_enclave ]) ?(threads = [ 1 ]) ?(sizes = [ None ]) () =
  let cells =
    List.concat_map
      (fun workload ->
         List.concat_map
           (fun scheme ->
              List.concat_map
                (fun env ->
                   List.concat_map
                     (fun t -> List.map (fun n -> { workload; scheme; env; threads = t; n }) sizes)
                     threads)
                envs)
           schemes)
      workloads
  in
  (* the baseline must be part of the matrix or normalization is undefined *)
  if not (List.mem baseline schemes) then invalid_arg "Fex.matrix: baseline not in schemes";
  { name; description; cells; baseline_scheme = baseline }

let run_cell c =
  let w = Registry.find c.workload in
  let r = Harness.run_one ~env:c.env ~threads:c.threads ?n:c.n ~scheme:c.scheme w in
  { cell = c; outcome = r.Harness.outcome }

let run ?jobs e = Parallel_runner.map_list ?jobs run_cell e.cells

let check_deterministic ?(repetitions = 3) e =
  match e.cells with
  | [] -> 0
  | c :: _ ->
    let snapshot () =
      match (run_cell c).outcome with
      | Harness.Completed m -> Some (m.Harness.cycles, m.Harness.peak_vm, m.Harness.llc_misses)
      | Harness.Crashed msg -> Some (String.length msg, 0, 0)
    in
    let first = snapshot () in
    for i = 2 to repetitions do
      if snapshot () <> first then
        failwith (Printf.sprintf "Fex: repetition %d diverged for %s/%s" i c.workload c.scheme)
    done;
    repetitions

let same_config a b = a.env = b.env && a.threads = b.threads && a.n = b.n

let normalize e ms =
  let baseline_of c =
    List.find_opt
      (fun m ->
         m.cell.workload = c.workload
         && m.cell.scheme = e.baseline_scheme
         && same_config m.cell c)
      ms
  in
  List.filter_map
    (fun m ->
       if m.cell.scheme = e.baseline_scheme then None
       else
         match baseline_of m.cell with
         | None | Some { outcome = Harness.Crashed _; _ } -> None
         | Some { outcome = Harness.Completed b; _ } ->
           let row =
             match m.outcome with
             | Harness.Crashed _ ->
               {
                 row_workload = m.cell.workload;
                 row_scheme = m.cell.scheme;
                 perf_x = None;
                 mem_x = None;
                 llc_miss_x = None;
                 epc_fault_x = None;
               }
             | Harness.Completed v ->
               let ratio num den = float_of_int num /. float_of_int (max 1 den) in
               {
                 row_workload = m.cell.workload;
                 row_scheme = m.cell.scheme;
                 perf_x = Some (ratio v.Harness.cycles b.Harness.cycles);
                 mem_x = Some (ratio v.Harness.peak_vm b.Harness.peak_vm);
                 llc_miss_x = Some (ratio v.Harness.llc_misses b.Harness.llc_misses);
                 epc_fault_x = Some (ratio v.Harness.epc_faults b.Harness.epc_faults);
               }
           in
           Some row)
    ms

let gmeans rows =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
       match r.perf_x with
       | Some x ->
         let l = Option.value (Hashtbl.find_opt tbl r.row_scheme) ~default:[] in
         Hashtbl.replace tbl r.row_scheme (x :: l)
       | None -> ())
    rows;
  Hashtbl.fold (fun s xs acc -> (s, Sb_machine.Util.geomean xs) :: acc) tbl []
  |> List.sort compare

let cellf = function None -> "-" | Some x -> Printf.sprintf "%.4f" x

let schema =
  let ratios = [ "perf_x"; "mem_x"; "llc_miss_x"; "epc_fault_x" ] in
  Tsv.schema "fex_overheads"
    ([ ("workload", Tsv.Text); ("scheme", Tsv.Text) ]
     @ List.map (fun c -> (c, Tsv.Ratio)) ratios)
    ~row_rules:
      [ ( "a crashed cell is - in every ratio column",
          fun r ->
            let dashes = List.filter (fun c -> Tsv.get r c = "-") ratios in
            dashes = [] || dashes = ratios ) ]

let to_tsv rows =
  Tsv.to_string schema
    (List.map
       (fun r ->
          [ r.row_workload; r.row_scheme; cellf r.perf_x; cellf r.mem_x;
            cellf r.llc_miss_x; cellf r.epc_fault_x ])
       rows)

let gnuplot_script e ~data_file =
  String.concat "\n"
    [
      Printf.sprintf "# %s — %s" e.name e.description;
      "set style data histograms";
      "set style histogram clustered gap 1";
      "set style fill solid 0.8 border -1";
      "set ylabel 'overhead (x over " ^ e.baseline_scheme ^ ")'";
      "set xtics rotate by -35";
      "set key top left";
      "set grid ytics";
      Printf.sprintf "set title '%s'" e.description;
      Printf.sprintf
        "plot '%s' using 3:xtic(1) title columnheader(2) # one series per scheme: \
         pre-filter rows by scheme or use an every clause"
        data_file;
      "";
    ]

let write_results ~dir e rows =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tsv_path = Filename.concat dir (e.name ^ ".tsv") in
  let gp_path = Filename.concat dir (e.name ^ ".gp") in
  let write path contents =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
  in
  write tsv_path (to_tsv rows);
  write gp_path (gnuplot_script e ~data_file:(Filename.basename tsv_path));
  tsv_path
