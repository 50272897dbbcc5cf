(** The symbolic interface auditor over the TeeRex buggy-handler
    corpus.

    Pins, per vulnerability class: the unprotected run is flagged with
    the class's signature finding kind, and the SGXBounds run
    neutralizes it (violation trapped, or nothing left to find). Plus
    the golden interface matrix — bit-identical across all three
    memory engines and any [--jobs] fan-out, and equal to the committed
    `results/interface_matrix.tsv` (check.sh regenerates and compares
    the file itself) — the audit-subset soundness pin measured across
    *independent* runs, the shipped service handlers staying clean, and
    the fuzz-seed export replaying clean through the differential
    oracle. *)

module Symex = Sb_analysis.Symex
module Audit = Sb_analysis.Audit
module Finding = Sb_analysis.Finding
module Handlers = Sb_apps.Handlers
module Interface_audit = Sb_service.Interface_audit
module Fuzz = Sb_fuzz.Fuzz
module Harness = Sb_harness.Harness
module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Fastpath = Sb_machine.Fastpath
open Sb_protection.Types

let variant name =
  match Handlers.find_variant name with
  | Some v -> v
  | None -> Alcotest.failf "no corpus variant %s" name

let cell ~scheme name = Symex.run_variant ~scheme (variant name)

(* -- per-class pins: native flagged with the signature kind -- *)

let test_native_class (name, kind) () =
  let c = cell ~scheme:"native" name in
  Alcotest.(check string) (name ^ " native status") "flagged" c.Symex.cc_status;
  Alcotest.(check bool)
    (name ^ " native signature kind " ^ kind)
    true
    (List.mem kind (Symex.cell_kinds c))

(* -- per-class pins: sgxbounds neutralizes -- *)

let test_sgxbounds_class (name, _kind) () =
  let c = cell ~scheme:"sgxbounds" name in
  Alcotest.(check bool)
    (name ^ " sgxbounds neutralized (status=" ^ c.Symex.cc_status ^ ")")
    true
    (c.Symex.cc_status = "trapped" || c.Symex.cc_status = "ok");
  Alcotest.(check bool)
    (name ^ " sgxbounds canary intact")
    false c.Symex.cc_corrupted;
  Alcotest.(check int) (name ^ " sgxbounds wild accesses") 0 c.Symex.cc_wild

let test_good_clean () =
  List.iter
    (fun scheme ->
       let c = cell ~scheme "good" in
       Alcotest.(check string) ("good " ^ scheme) "ok" c.Symex.cc_status;
       Alcotest.(check int)
         ("good " ^ scheme ^ " findings")
         0
         (List.length c.Symex.cc_findings))
    Symex.matrix_schemes

(* -- the golden matrix: engine- and jobs-invariant -- *)

let matrix_under_engine kind jobs =
  Fastpath.with_kind kind (fun () ->
      Symex.matrix_tsv (Symex.corpus_sweep ~jobs ()))

let test_matrix_invariant () =
  let reference = matrix_under_engine Fastpath.Naive 1 in
  List.iter
    (fun (label, kind, jobs) ->
       Alcotest.(check string)
         (Printf.sprintf "matrix identical under %s" label)
         reference
         (matrix_under_engine kind jobs))
    [
      ("fast engine", Fastpath.Fast, 1);
      ("naive engine, jobs=2", Fastpath.Naive, 2);
    ];
  (* and the Table-4 pins hold on what we just generated *)
  Alcotest.(check (list string))
    "matrix pins" []
    (Symex.verify_matrix (Symex.corpus_sweep ()))

(* -- audit-subset soundness across independent runs: the dynamic
      auditor alone, on the same handler and scheme, finds nothing the
      composed run does not also report -- *)

let audit_only_findings ~scheme v =
  let ms = Memsys.create (Config.default ()) in
  Fun.protect ~finally:(fun () -> Memsys.retire ms) @@ fun () ->
  let s, a = Audit.wrap ~track_races:false (Harness.maker scheme ms) in
  Fun.protect ~finally:Audit.unhook @@ fun () ->
  let req = s.Sb_protection.Scheme.malloc 1024 in
  let resp = s.Sb_protection.Scheme.malloc 1024 in
  let ra = s.Sb_protection.Scheme.addr_of req in
  Memsys.fill ms ~addr:ra ~len:Symex.req_image_len ~byte:0x41;
  List.iter
    (fun (off, value) -> Memsys.store ms ~addr:(ra + off) ~width:4 value)
    v.Handlers.v_fields;
  let h =
    { Handlers.s; req; req_len = Symex.req_image_len; resp; resp_len = 1024;
      note_phase = ignore }
  in
  (try v.Handlers.v_run h with
   | Violation _ | Sb_vmem.Vmem.Fault _ | App_crash _ -> ());
  Audit.findings a

let test_subset_independent_runs () =
  List.iter
    (fun name ->
       let v = variant name in
       List.iter
         (fun scheme ->
            let dyn = audit_only_findings ~scheme v in
            let unified = (cell ~scheme name).Symex.cc_findings in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: audit-only findings ⊆ unified" name scheme)
              true
              (Finding.subset dyn unified))
         [ "native"; "sgxbounds" ])
    [ "good"; "libc-len"; "len-overflow" ]

(* -- within-run subset pin over the whole matrix -- *)

let test_subset_within_runs () =
  List.iter
    (fun c ->
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s subset_ok" c.Symex.cc_class c.Symex.cc_scheme)
         true c.Symex.cc_subset_ok)
    (Symex.corpus_sweep ())

(* -- the shipped service handlers audit clean symbolically -- *)

let test_shipped_clean () =
  List.iter
    (fun c ->
       Alcotest.(check int)
         (Printf.sprintf "%s/%s findings" c.Interface_audit.ic_app
            c.Interface_audit.ic_scheme)
         0 c.Interface_audit.ic_total;
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s completed" c.Interface_audit.ic_app
            c.Interface_audit.ic_scheme)
         true
         (c.Interface_audit.ic_crashed = None);
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s subset_ok" c.Interface_audit.ic_app
            c.Interface_audit.ic_scheme)
         true c.Interface_audit.ic_subset_ok)
    (Interface_audit.sweep ~schemes:[ "native"; "sgxbounds" ] ~requests:4 ())

(* -- symbolic findings round-trip through the fuzz oracle -- *)

let test_seed_traces_replay () =
  let cells = Symex.corpus_sweep ~schemes:[ "native" ] () in
  let seeds = Symex.seed_traces cells in
  Alcotest.(check bool)
    (Printf.sprintf "seed count %d >= 3" (List.length seeds))
    true
    (List.length seeds >= 3);
  List.iteri
    (fun i tr ->
       match Fuzz.check_trace tr with
       | None -> ()
       | Some f -> Alcotest.failf "seed trace %d failed: %a" i Fuzz.pp_failure f)
    (Symex.expand_seeds ~total:16 seeds)

(* -- the symbolic pass's own selftests -- *)

let test_selftests () =
  let sts = Symex.selftests () in
  List.iter
    (fun st ->
       Alcotest.(check bool)
         (st.Symex.sx_name ^ ": " ^ st.Symex.sx_detail)
         true st.Symex.sx_pass)
    sts

let class_cases =
  List.map
    (fun ((name, _) as cls) ->
       Alcotest.test_case (name ^ " flagged on native") `Quick
         (test_native_class cls))
    Symex.signature_kinds
  @ List.map
      (fun ((name, _) as cls) ->
         Alcotest.test_case (name ^ " neutralized by sgxbounds") `Quick
           (test_sgxbounds_class cls))
      Symex.signature_kinds

let suite =
  class_cases
  @ [
      Alcotest.test_case "good handler clean under every scheme" `Quick
        test_good_clean;
      Alcotest.test_case "matrix bit-identical across engines and jobs" `Slow
        test_matrix_invariant;
      Alcotest.test_case "audit subset across independent runs" `Quick
        test_subset_independent_runs;
      Alcotest.test_case "audit subset within every matrix cell" `Quick
        test_subset_within_runs;
      Alcotest.test_case "shipped handlers symbolically clean" `Slow
        test_shipped_clean;
      Alcotest.test_case "symbolic seeds replay clean through fuzz oracle" `Slow
        test_seed_traces_replay;
      Alcotest.test_case "symex selftests" `Slow test_selftests;
    ]
