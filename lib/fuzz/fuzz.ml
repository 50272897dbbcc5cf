(** The differential fuzz driver.

    For every generated trace, [check_trace] replays the oracle's plan
    through every scheme under both memory engines — naive and fast —
    and checks three invariants:

    + {b Engines agree bit-for-bit}: the fast engine produces a
      {!Replay.run} record structurally equal to the naive engine's —
      same stop, same read values, same cycle/instruction/check
      counters. Fault-injection traces are the sharp edge here: a
      violation or page fault landing mid-streak must observe exactly
      the accounting the naive engine accumulates access by access.
    + {b Zero false positives}: no scheme stops (violation {e or}
      crash) before the oracle's first unsafe event; on an oracle-safe
      trace nothing stops and boundless mode counts zero violations.
    + {b No missed in-contract violations}: if the trace contains a
      range a scheme's {!Contract} covers, that scheme stops at or
      before the first such event (boundless mode may count instead of
      stopping). Stops {e at or after} the first unsafe event are always
      acceptable — post-corruption behaviour is the scheme's business —
      but silence past a covered event is a miss.

    Reads are additionally compared {e across} schemes (against the
    first spec, normally native) wherever the oracle says the bytes are
    defined and the trace still safe — the protection layer must not
    change what correct code computes.

    [campaign] drives seeded generation ({!Trace.generate}), and on
    failure greedily shrinks the trace to a minimal counterexample that
    still fails the same way ([shrink_trace]). Everything is
    deterministic in the seed: per-iteration child seeds split off one
    parent generator, machines are simulated, and no wall clock is
    consulted. *)

module Rng = Sb_machine.Rng
module Scheme = Sb_protection.Scheme

type spec = {
  sp_name : string;
  sp_maker : Sb_sgx.Memsys.t -> Scheme.t;
  sp_counts_only : bool;
      (** boundless mode: detection shows up as counted violations, not
          stops (libc wrappers still stop, §3.4) *)
}

(* One spec per capability-table row; the replay flavour of each maker
   (baggy gets a small buddy region: fuzz traces allocate a few KiB, and
   the region plus its 1/16 size table is mapped eagerly per replay). *)
let default_specs () : spec list =
  List.map
    (fun i ->
       {
         sp_name = i.Sb_schemes.Scheme_info.name;
         sp_maker = i.Sb_schemes.Scheme_info.trace_maker;
         sp_counts_only = i.Sb_schemes.Scheme_info.counts_only;
       })
    Sb_schemes.Scheme_info.all

type failure_kind = Engine_mismatch | False_positive | Missed_violation | Scheme_divergence

let kind_name = function
  | Engine_mismatch -> "engine mismatch"
  | False_positive -> "false positive"
  | Missed_violation -> "missed violation"
  | Scheme_divergence -> "scheme divergence"

type failure = {
  f_scheme : string;
  f_kind : failure_kind;
  f_event : int; (** primary event index; -1 when trace-global *)
  f_detail : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s%s: %s" f.f_scheme (kind_name f.f_kind)
    (if f.f_event >= 0 then Printf.sprintf " at event %d" f.f_event else "")
    f.f_detail

let event_str trace i =
  if i >= 0 && i < Array.length trace then Format.asprintf "%a" Trace.pp_event trace.(i)
  else "<none>"

let check_trace ?specs (trace : Trace.t) : failure option =
  let specs = match specs with Some s -> s | None -> default_specs () in
  let plan = Oracle.analyze trace in
  let fail sp_name f_kind f_event f_detail =
    Some { f_scheme = sp_name; f_kind; f_event; f_detail }
  in
  (* Invariant 1: fast == naive, per scheme. *)
  let runs =
    List.map
      (fun sp ->
         let naive =
           Replay.run_engine ~kind:Sb_machine.Fastpath.Naive ~maker:sp.sp_maker ~plan trace
         in
         let fast =
           Replay.run_engine ~kind:Sb_machine.Fastpath.Fast ~maker:sp.sp_maker ~plan trace
         in
         (sp, naive, fast))
      specs
  in
  let mismatch_detail (fast : Replay.run) (naive : Replay.run) =
    if fast.Replay.stop <> naive.Replay.stop then
      Format.asprintf "fast stop %a / naive stop %a"
        (Format.pp_print_option Replay.pp_stop) fast.Replay.stop
        (Format.pp_print_option Replay.pp_stop) naive.Replay.stop
    else if fast.Replay.reads <> naive.Replay.reads then "fast read values differ"
    else
      Printf.sprintf
        "fast counters differ (cycles %d/%d, instrs %d/%d, checks %d/%d)"
        fast.Replay.cycles naive.Replay.cycles fast.Replay.instrs
        naive.Replay.instrs fast.Replay.checks_done naive.Replay.checks_done
  in
  let engine_mismatch =
    List.find_map
      (fun (sp, naive, fast) ->
         if fast <> naive then
           fail sp.sp_name Engine_mismatch (-1) (mismatch_detail fast naive)
         else None)
      runs
  in
  match engine_mismatch with
  | Some _ as f -> f
  | None ->
    let fp_bound = match plan.Oracle.p_first_unsafe with None -> max_int | Some u -> u in
    (* Invariant 2: zero false positives before the first unsafe event. *)
    let false_positive =
      List.find_map
        (fun (sp, r, _) ->
           match r.Replay.stop with
           | Some st when st.Replay.at < fp_bound ->
             fail sp.sp_name False_positive st.Replay.at
               (Format.asprintf "%a on oracle-%s event (%s)" Replay.pp_stop st
                  (Oracle.event_label plan st.Replay.at)
                  (event_str trace st.Replay.at))
           | _ ->
             if plan.Oracle.p_first_unsafe = None && r.Replay.violations_counted > 0 then
               fail sp.sp_name False_positive (-1)
                 (Printf.sprintf "%d violation(s) counted on an oracle-safe trace"
                    r.Replay.violations_counted)
             else None)
        runs
    in
    (match false_positive with
     | Some _ as f -> f
     | None ->
       (* Invariant 3: every in-contract violation is detected. *)
       let missed =
         List.find_map
           (fun (sp, r, _) ->
              match Contract.first_covered ~scheme:sp.sp_name plan with
              | None -> None
              | Some c ->
                let detected =
                  (match r.Replay.stop with Some st -> st.Replay.at <= c | None -> false)
                  || (sp.sp_counts_only && r.Replay.violations_counted > 0)
                in
                if detected then None
                else
                  fail sp.sp_name Missed_violation c
                    (Format.asprintf
                       "oracle-%s event in the scheme's contract (%s), but the run %s"
                       (Oracle.event_label plan c) (event_str trace c)
                       (match r.Replay.stop with
                        | None -> "completed silently"
                        | Some st -> Format.asprintf "only stopped later: %a" Replay.pp_stop st)))
           runs
       in
       (match missed with
        | Some _ as f -> f
        | None ->
          (* Cross-scheme: instrumented reads of defined bytes agree. *)
          match runs with
          | [] | [ _ ] -> None
          | (base_sp, base, _) :: rest ->
            List.find_map
              (fun (sp, r, _) ->
                 let bad = ref None in
                 Array.iteri
                   (fun i d ->
                      match d with
                      | Oracle.Skip -> ()
                      | Oracle.Exec x ->
                        if !bad = None then
                          Array.iteri
                            (fun j cmp ->
                               if cmp && !bad = None then
                                 let a = base.Replay.reads.(i) and b = r.Replay.reads.(i) in
                                 if j < Array.length a && j < Array.length b
                                    && a.(j) <> b.(j) then
                                   bad :=
                                     fail sp.sp_name Scheme_divergence i
                                       (Printf.sprintf
                                          "read %d of (%s) = %#x, but %s read %#x"
                                          j (event_str trace i) b.(j) base_sp.sp_name a.(j)))
                            x.Oracle.x_compare)
                   plan.Oracle.p_dispositions;
                 !bad)
              rest))

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy delta-debugging on event subsequences. Dropping
   events is always sound — the oracle re-plans the subsequence and
   skips whatever no longer applies — so we only need "still fails the
   same way" as the predicate. *)

let same_failure (a : failure) (b : failure) =
  a.f_scheme = b.f_scheme && a.f_kind = b.f_kind

let shrink_trace ?specs (trace : Trace.t) (target : failure) : Trace.t =
  let attempt t =
    match check_trace ?specs t with
    | Some f when same_failure target f -> true
    | _ -> false
  in
  let remove t i k =
    Array.append (Array.sub t 0 i) (Array.sub t (i + k) (Array.length t - i - k))
  in
  let rec pass t k =
    if k = 0 then t
    else begin
      let t = ref t and i = ref 0 in
      while !i < Array.length !t do
        let k' = min k (Array.length !t - !i) in
        let cand = remove !t !i k' in
        if attempt cand then t := cand else i := !i + k'
      done;
      pass !t (k / 2)
    end
  in
  pass trace (max 1 (Array.length trace / 2))

(* ------------------------------------------------------------------ *)

type counterexample = {
  cx_iter : int;       (** 1-based iteration that failed *)
  cx_trace : Trace.t;  (** the original failing trace *)
  cx_shrunk : Trace.t;
  cx_failure : failure; (** failure reported on the shrunk trace *)
}

type report = {
  rp_seed : int;
  rp_iters : int;     (** iterations requested *)
  rp_ran : int;       (** iterations executed *)
  rp_events : int;    (** total events generated *)
  rp_schemes : string list;
  rp_counterexample : counterexample option;
}

let campaign ?specs ?params ?(progress = fun _ -> ()) ?(shrink = true) ~seed ~iters () :
  report =
  let specs = match specs with Some s -> s | None -> default_specs () in
  let rng = Rng.create seed in
  let events = ref 0 in
  let finish ran cx =
    { rp_seed = seed; rp_iters = iters; rp_ran = ran; rp_events = !events;
      rp_schemes = List.map (fun sp -> sp.sp_name) specs; rp_counterexample = cx }
  in
  let rec loop i =
    if i > iters then finish (i - 1) None
    else begin
      let tseed = Rng.split rng in
      let trace = Trace.generate ?params (Rng.create tseed) in
      events := !events + Array.length trace;
      match check_trace ~specs trace with
      | None ->
        progress i;
        loop (i + 1)
      | Some f ->
        let shrunk = if shrink then shrink_trace ~specs trace f else trace in
        let f' = match check_trace ~specs shrunk with Some f' -> f' | None -> f in
        finish i (Some { cx_iter = i; cx_trace = trace; cx_shrunk = shrunk; cx_failure = f' })
    end
  in
  loop 1

(** The exact command that reproduces a failing campaign (iteration
    [cx_iter] is reached deterministically from the seed). *)
let replay_command ~seed (cx : counterexample) =
  Printf.sprintf "sgxbounds_cli fuzz --seed %d --iters %d" seed cx.cx_iter
