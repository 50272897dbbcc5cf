(** The symbolic interface auditor: a taint/abstract interpreter over
    the {!Sb_protection.Scheme.t} operation vocabulary.

    PAPERS.md's TeeRex and Guardian audit the *ecall interface* of an
    enclave: request bytes arrive from the untrusted host, so any
    pointer or length derived from them must pass a dominating bounds
    check before it reaches memory. This pass models exactly that,
    without a solver: every incoming request byte becomes a fresh taint
    symbol, taint propagates through [load]s, host arithmetic on loaded
    values and [offset], and a finding fires when

    - a pointer carrying unvalidated taint reaches an access the scheme
      does not itself guard ({!Finding.Tainted_deref});
    - an access lands outside its referent object while unvalidated
      taint is live — the attacker steered an extent
      ({!Finding.Tainted_extent});
    - tainted or out-of-object extents reach a libc wrapper that does
      not really check ({!Finding.Tainted_libc});
    - the same tainted request byte is fetched twice with a store in
      between — a double fetch; the second read is havocked to model
      the host rewriting the shared page ({!Finding.Double_fetch});
    - the handler's interface state machine regresses (an "execute"
      before its "validate" — {!Finding.Phase_disorder}).

    [check_range]/[libc_check] on a region *validate* the symbols in it:
    that is the handler doing its job, under any scheme. Independently,
    schemes that check every access by construction (the
    {!guards_accesses} capability table, mirroring
    [Sb_fuzz.Contract.covers]) neutralize the deref/extent classes even
    when the handler forgot — that asymmetry is the Table-4-style
    matrix this module pins over the {!Sb_apps.Handlers} buggy corpus.
    Double fetches and phase disorder are *not* suppressed by bounds
    checking (a bounds check cannot stop TOCTOU); SGXBounds cells for
    those classes are neutralized operationally instead, by trapping the
    resulting out-of-bounds access.

    The wrapper composes {!Audit.wrap} *inside* itself, so every run
    carries both passes and the dynamic findings are a subset of the
    unified findings by construction ({!subset_ok}). All taint
    bookkeeping is gated on {!active} — until the driver calls
    {!taint_region} the wrapper adds nothing but the audit layer, and
    metrics stay bit-identical. *)

module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Scheme = Sb_protection.Scheme
module Telemetry = Sb_telemetry.Telemetry
module Json = Sb_telemetry.Json
module Tsv = Sb_telemetry.Tsv
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Handlers = Sb_apps.Handlers
module Trace = Sb_fuzz.Trace
open Sb_protection.Types

module Iset = Set.Make (Int)

(* ---------- scheme capability table ----------

   Mirrors the philosophy of [Sb_fuzz.Contract]: what a scheme promises
   is static knowledge, not something to probe at runtime (only
   SGXBounds counts [checks_done]; ASan and MPX trap without counting,
   so a counter delta would misclassify them). *)

(** The scheme checks every ordinary (checked-family) access against
    object bounds, so an attacker-steered pointer traps instead of
    dereferencing wild. Both rows come from the one capability table
    ({!Sb_schemes.Scheme_info}); MPX ships no libc interceptors (§5.3 of
    the paper) — its column stays exposed on the libc-length class,
    which is exactly the Table 4 story. *)
let guards_accesses = Sb_schemes.Scheme_info.guards_accesses

let guards_libc = Sb_schemes.Scheme_info.guards_libc

(* ---------- taint state ---------- *)

(** Values a handler computes from untainted host state (loop indices,
    cycle counts) stay tiny; attacker markers planted by the corpus are
    >= [Handlers.marker_min]. Only loaded values at or above this bound
    are registered for value-taint lookup, so host arithmetic cannot
    collide with a symbol by accident. *)
let value_track_min = Handlers.marker_min

(** What a havocked double-fetch read returns: large enough to steer
    any copy loop out of bounds, deterministic across engines. *)
let havoc_value = 4096

type t = {
  audit : Audit.t;
  tel : Telemetry.t;
  max_findings : int;
  (* taint shadow *)
  tmem : (int, Iset.t) Hashtbl.t;   (* byte address -> symbols *)
  tval : (int, Iset.t) Hashtbl.t;   (* loaded value -> symbols *)
  tptr : (int, Iset.t) Hashtbl.t;   (* pointer address -> symbols *)
  prov : (int, int) Hashtbl.t;      (* derived address -> referent base *)
  validated : (int, unit) Hashtbl.t;    (* symbol -> dominating check seen *)
  sym_src : (int, string) Hashtbl.t;    (* symbol -> "label[i]" *)
  first_fetch : (int, int) Hashtbl.t;   (* symbol -> store epoch at 1st read *)
  mutable next_sym : int;
  mutable unvalidated_live : int;
  mutable store_epoch : int;
  mutable phase_max : int;
  mutable wild : int;               (* unguarded out-of-object accesses *)
  (* findings (symbolic side; Audit keeps its own) *)
  seen : (string, unit) Hashtbl.t;
  mutable findings_rev : Finding.t list;
  mutable n_stored : int;
  mutable s_total : int;
  counts : (Finding.kind, int) Hashtbl.t;
}

(** Taint machinery engages only once the driver has planted symbols;
    before that every interceptor is a plain passthrough and audited
    runs keep bit-identical metrics. *)
let active t = t.next_sym > 0

let report t kind ~site ~addr ~obj ~extent ~detail ~dedup =
  t.s_total <- t.s_total + 1;
  Hashtbl.replace t.counts kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind));
  if not (Hashtbl.mem t.seen dedup) then begin
    Hashtbl.replace t.seen dedup ();
    let f =
      { Finding.kind; site; addr; obj; extent;
        thread = Audit.cur_thread t.audit; detail }
    in
    if t.n_stored < t.max_findings then begin
      t.findings_rev <- f :: t.findings_rev;
      t.n_stored <- t.n_stored + 1
    end;
    Telemetry.event t.tel ~cat:"symex" (Finding.kind_name kind)
      ~args:
        [ ("site", site); ("addr", Printf.sprintf "0x%x" addr);
          ("extent", string_of_int extent); ("detail", detail) ]
  end

(* -- shadow lookups -- *)

let mem_syms t addr width =
  let acc = ref Iset.empty in
  for i = 0 to width - 1 do
    match Hashtbl.find_opt t.tmem (addr + i) with
    | Some s -> acc := Iset.union !acc s
    | None -> ()
  done;
  !acc

let val_syms t v =
  Option.value ~default:Iset.empty (Hashtbl.find_opt t.tval v)

let ptr_syms t addr =
  Option.value ~default:Iset.empty (Hashtbl.find_opt t.tptr addr)

let unvalidated t syms = Iset.filter (fun s -> not (Hashtbl.mem t.validated s)) syms

let sym_name t s =
  Option.value ~default:(Printf.sprintf "sym%d" s) (Hashtbl.find_opt t.sym_src s)

let validate_sym t s =
  if not (Hashtbl.mem t.validated s) then begin
    Hashtbl.replace t.validated s ();
    t.unvalidated_live <- t.unvalidated_live - 1
  end

let validate_syms t syms = Iset.iter (validate_sym t) syms

(** Referent base of a derived address: the provenance recorded when the
    pointer was built with [offset], else whatever live object contains
    the address (the audit layer's table). *)
let prov_base t addr =
  match Hashtbl.find_opt t.prov addr with
  | Some lo -> Some lo
  | None ->
    (match Audit.lookup t.audit addr with
     | Some o -> Some o.Audit.o_lo
     | None -> None)

let referent t addr =
  match prov_base t addr with
  | None -> None
  | Some lo ->
    (match Audit.lookup t.audit lo with
     | Some o -> Some (o.Audit.o_lo, o.Audit.o_hi)
     | None -> None)

(* ---------- taint sources (driver API) ---------- *)

(** Mark [len] request bytes at [addr] as fresh attacker symbols.
    Re-tainting the same region for the next request mints *fresh*
    symbols, so cross-request re-reads never masquerade as double
    fetches. *)
let taint_region t ~addr ~len ~label =
  for i = 0 to len - 1 do
    let s = t.next_sym in
    t.next_sym <- s + 1;
    t.unvalidated_live <- t.unvalidated_live + 1;
    Hashtbl.replace t.sym_src s (Printf.sprintf "%s[%d]" label i);
    Hashtbl.replace t.tmem (addr + i) (Iset.singleton s)
  done

(** Bind a planted field's concrete [value] to the symbols of its bytes,
    so host arithmetic on the loaded value stays trackable. *)
let register_value t ~addr ~width ~value =
  if value >= value_track_min then begin
    let syms = mem_syms t addr width in
    if not (Iset.is_empty syms) then
      Hashtbl.replace t.tval value (Iset.union syms (val_syms t value))
  end

(* ---------- the orderliness check ---------- *)

let phase_index name =
  let rec idx i = function
    | [] -> -1
    | p :: _ when p = name -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 Handlers.phase_names

(** Note a handler phase. Entering a phase that precedes the furthest
    phase reached is a state-machine regression (TeeRex's orderliness
    class); re-entering the current phase or skipping forward is fine. *)
let phase t name =
  let i = phase_index name in
  if i >= 0 then begin
    if i < t.phase_max then
      report t Finding.Phase_disorder ~site:name ~addr:0 ~obj:0 ~extent:0
        ~detail:
          (Printf.sprintf "phase '%s' entered after '%s'" name
             (List.nth Handlers.phase_names t.phase_max))
        ~dedup:("ph:" ^ name)
    else t.phase_max <- i
  end

(* ---------- sinks ---------- *)

type family = Fam_checked | Fam_safe | Fam_unchecked

let fam_str = function
  | Fam_checked -> "checked"
  | Fam_safe -> "safe"
  | Fam_unchecked -> "unchecked"

(** Before an access: does attacker-derived data steer it, and does
    anything stand in the way? The [safe_*]/[*_unchecked] families are
    compiler-elided even under guarding schemes — tainted data reaching
    them is a finding under *every* scheme. *)
let pre_access t ~family ~site ~addr ~width =
  if active t then begin
    let scheme_checked =
      family = Fam_checked && guards_accesses (Audit.scheme_name t.audit)
    in
    let ps = unvalidated t (ptr_syms t addr) in
    let tainted_ptr = not (Iset.is_empty ps) in
    if tainted_ptr && not scheme_checked then begin
      let s = Iset.min_elt ps in
      report t Finding.Tainted_deref ~site ~addr
        ~obj:(Option.value ~default:0 (prov_base t addr))
        ~extent:width
        ~detail:
          (Printf.sprintf
             "%s-family access through pointer derived from %s with no \
              dominating check" (fam_str family) (sym_name t s))
        ~dedup:(Printf.sprintf "td:%s:%d" site s)
    end;
    match referent t addr with
    | Some (lo, hi) when addr < lo || addr + width > hi ->
      if not scheme_checked then begin
        t.wild <- t.wild + 1;
        if t.unvalidated_live > 0 && not tainted_ptr then
          report t Finding.Tainted_extent ~site ~addr ~obj:lo ~extent:width
            ~detail:
              (Printf.sprintf
                 "access [0x%x,0x%x) escapes object [0x%x,0x%x) while \
                  unvalidated request taint is live" addr (addr + width) lo hi)
            ~dedup:(Printf.sprintf "te:%s:0x%x" site lo)
      end
    | _ -> ()
  end

(** After a successful read: double-fetch detection, then value-taint
    registration. A re-fetch after any store havocs — the model of the
    host rewriting the shared request page between the two reads. *)
let post_read t ~site ~addr ~width v =
  if not (active t) then v
  else begin
    let syms = mem_syms t addr width in
    if Iset.is_empty syms then v
    else begin
      let havoc = ref false in
      Iset.iter
        (fun s ->
           match Hashtbl.find_opt t.first_fetch s with
           | None -> Hashtbl.replace t.first_fetch s t.store_epoch
           | Some e ->
             if t.store_epoch > e then begin
               havoc := true;
               report t Finding.Double_fetch ~site ~addr
                 ~obj:(Option.value ~default:0 (prov_base t addr))
                 ~extent:width
                 ~detail:
                   (Printf.sprintf
                      "%s re-fetched after an intervening store; second read \
                       havocked to %d" (sym_name t s) havoc_value)
                 ~dedup:(Printf.sprintf "df:%d" s)
             end)
        syms;
      if !havoc then havoc_value
      else begin
        if v >= value_track_min then
          Hashtbl.replace t.tval v (Iset.union syms (val_syms t v));
        v
      end
    end
  end

(** After a store: bump the double-fetch epoch and do a strong update of
    the destination bytes' taint from the stored value. *)
let post_store t ~addr ~width v =
  if active t then begin
    t.store_epoch <- t.store_epoch + 1;
    let vs = val_syms t v in
    if Iset.is_empty vs then
      for i = 0 to width - 1 do Hashtbl.remove t.tmem (addr + i) done
    else
      for i = 0 to width - 1 do Hashtbl.replace t.tmem (addr + i) vs done
  end

(** A [check_range] validates every symbol it covers: the bytes of the
    extent, the pointer's own taint, and the taint of the length value —
    the handler has done its interface-validation duty for them. *)
let on_check t ~addr ~len =
  if active t && len > 0 then begin
    validate_syms t (mem_syms t addr len);
    validate_syms t (ptr_syms t addr);
    validate_syms t (val_syms t len)
  end

let on_libc_check t ~addr ~len =
  if active t && len > 0 then begin
    let name = Audit.scheme_name t.audit in
    if guards_libc name then begin
      validate_syms t (mem_syms t addr len);
      validate_syms t (ptr_syms t addr);
      validate_syms t (val_syms t len)
    end
    else begin
      let ps = unvalidated t (ptr_syms t addr) in
      let len_tainted = not (Iset.is_empty (unvalidated t (val_syms t len))) in
      let oob =
        match referent t addr with
        | Some (lo, hi) -> addr < lo || addr + len > hi
        | None -> false
      in
      if (not (Iset.is_empty ps)) || (oob && (len_tainted || t.unvalidated_live > 0))
      then
        report t Finding.Tainted_libc ~site:"libc_check" ~addr
          ~obj:(Option.value ~default:0 (prov_base t addr))
          ~extent:len
          ~detail:
            (Printf.sprintf
               "libc extent %d under scheme '%s' whose wrapper does not \
                verify bounds" len name)
          ~dedup:(Printf.sprintf "tl:0x%x"
                    (Option.value ~default:addr (prov_base t addr)))
    end
  end

(* ---------- the wrapper ---------- *)

let unhook = Audit.unhook

(** [wrap inner] = taint interpreter over [Audit.wrap inner]: the
    audited scheme sits inside, so the dynamic pass observes exactly
    the operations the symbolic pass does and its findings are a subset
    of {!findings} by construction. Same single-per-domain discipline
    as {!Audit.wrap} (call {!unhook} when done). *)
let wrap ?(track_races = true) ?(max_findings = 200) (inner : Scheme.t) :
  Scheme.t * t =
  let audited, audit = Audit.wrap ~track_races ~max_findings inner in
  let t =
    {
      audit;
      tel = Memsys.telemetry inner.Scheme.ms;
      max_findings;
      tmem = Hashtbl.create 1024;
      tval = Hashtbl.create 64;
      tptr = Hashtbl.create 256;
      prov = Hashtbl.create 256;
      validated = Hashtbl.create 64;
      sym_src = Hashtbl.create 1024;
      first_fetch = Hashtbl.create 1024;
      next_sym = 0;
      unvalidated_live = 0;
      store_epoch = 0;
      phase_max = 0;
      wild = 0;
      seen = Hashtbl.create 64;
      findings_rev = [];
      n_stored = 0;
      s_total = 0;
      counts = Hashtbl.create 8;
    }
  in
  let addr_of = audited.Scheme.addr_of in
  let s =
    {
      audited with
      Scheme.offset =
        (fun p d ->
           let q = audited.Scheme.offset p d in
           if active t then begin
             let ap = addr_of p and aq = addr_of q in
             let syms = Iset.union (ptr_syms t ap) (val_syms t d) in
             if not (Iset.is_empty syms) then
               Hashtbl.replace t.tptr aq (Iset.union syms (ptr_syms t aq));
             match prov_base t ap with
             | Some lo -> Hashtbl.replace t.prov aq lo
             | None -> ()
           end;
           q);
      load =
        (fun p width ->
           let a = addr_of p in
           pre_access t ~family:Fam_checked ~site:"load" ~addr:a ~width;
           let v = audited.Scheme.load p width in
           post_read t ~site:"load" ~addr:a ~width v);
      store =
        (fun p width v ->
           let a = addr_of p in
           pre_access t ~family:Fam_checked ~site:"store" ~addr:a ~width;
           audited.Scheme.store p width v;
           post_store t ~addr:a ~width v);
      safe_load =
        (fun p width ->
           let a = addr_of p in
           pre_access t ~family:Fam_safe ~site:"safe_load" ~addr:a ~width;
           let v = audited.Scheme.safe_load p width in
           post_read t ~site:"safe_load" ~addr:a ~width v);
      safe_store =
        (fun p width v ->
           let a = addr_of p in
           pre_access t ~family:Fam_safe ~site:"safe_store" ~addr:a ~width;
           audited.Scheme.safe_store p width v;
           post_store t ~addr:a ~width v);
      load_unchecked =
        (fun p width ->
           let a = addr_of p in
           pre_access t ~family:Fam_unchecked ~site:"load_unchecked" ~addr:a
             ~width;
           let v = audited.Scheme.load_unchecked p width in
           post_read t ~site:"load_unchecked" ~addr:a ~width v);
      store_unchecked =
        (fun p width v ->
           let a = addr_of p in
           pre_access t ~family:Fam_unchecked ~site:"store_unchecked" ~addr:a
             ~width;
           audited.Scheme.store_unchecked p width v;
           post_store t ~addr:a ~width v);
      load_ptr =
        (fun p ->
           let a = addr_of p in
           pre_access t ~family:Fam_checked ~site:"load_ptr" ~addr:a ~width:8;
           let q = audited.Scheme.load_ptr p in
           if active t then begin
             let syms = mem_syms t a 8 in
             if not (Iset.is_empty syms) then
               Hashtbl.replace t.tptr (addr_of q)
                 (Iset.union syms (ptr_syms t (addr_of q)))
           end;
           q);
      store_ptr =
        (fun p q ->
           let a = addr_of p in
           pre_access t ~family:Fam_checked ~site:"store_ptr" ~addr:a ~width:8;
           audited.Scheme.store_ptr p q;
           post_store t ~addr:a ~width:8 0);
      load_ptr_unchecked =
        (fun p ->
           let a = addr_of p in
           pre_access t ~family:Fam_unchecked ~site:"load_ptr_unchecked"
             ~addr:a ~width:8;
           let q = audited.Scheme.load_ptr_unchecked p in
           if active t then begin
             let syms = mem_syms t a 8 in
             if not (Iset.is_empty syms) then
               Hashtbl.replace t.tptr (addr_of q)
                 (Iset.union syms (ptr_syms t (addr_of q)))
           end;
           q);
      store_ptr_unchecked =
        (fun p q ->
           let a = addr_of p in
           pre_access t ~family:Fam_unchecked ~site:"store_ptr_unchecked"
             ~addr:a ~width:8;
           audited.Scheme.store_ptr_unchecked p q;
           post_store t ~addr:a ~width:8 0);
      check_range =
        (fun p len access ->
           audited.Scheme.check_range p len access;
           on_check t ~addr:(addr_of p) ~len);
      libc_check =
        (fun p len access ->
           (* verdict first: the wrapper's (in)capability decides, not
              whether the inner call survives to return *)
           on_libc_check t ~addr:(addr_of p) ~len;
           audited.Scheme.libc_check p len access);
    }
  in
  (s, t)

(* ---------- accessors ---------- *)

let audit t = t.audit
let symbolic_findings t = List.rev t.findings_rev

(** All findings of the run: dynamic (audit) first, then symbolic. *)
let findings t = Audit.findings t.audit @ symbolic_findings t

let sym_total t = t.s_total
let total t = Audit.total t.audit + t.s_total
let ops t = Audit.ops t.audit
let wild t = t.wild

let count t kind =
  Audit.count t.audit kind
  + Option.value ~default:0 (Hashtbl.find_opt t.counts kind)

(** The soundness pin of the composition: every dynamic finding appears
    (structurally) in the unified list. True by construction — asserted
    anyway on every sweep. *)
let subset_ok t = Finding.subset (Audit.findings t.audit) (findings t)

(* ---------- the buggy-handler corpus runner ---------- *)

(** Bytes of the request image the "attacker" controls (and we taint). *)
let req_image_len = 256

type corpus_cell = {
  cc_class : string;       (* Handlers variant name *)
  cc_scheme : string;
  cc_status : string;      (* "ok" | "flagged" | "trapped" *)
  cc_outcome : string;     (* "completed" | "trapped" | "fault" | "crash" *)
  cc_findings : Finding.t list;
  cc_total : int;          (* every occurrence, deduplicated or not *)
  cc_wild : int;
  cc_corrupted : bool;     (* the heap canary was trampled *)
  cc_subset_ok : bool;
}

(** Run one buggy-handler variant under one scheme on a fresh machine:
    allocate request/response/canary, plant the attacker's request
    image, taint it, run the handler, read the canary back raw. The
    canary is written and read through {!Memsys} directly so neither
    the scheme nor the auditors observe it. *)
let run_variant ?(scheme = "native") (v : Handlers.variant) : corpus_cell =
  let ms = Memsys.create (Config.default ()) in
  Fun.protect ~finally:(fun () -> Memsys.retire ms) @@ fun () ->
  let s0 = Harness.maker scheme ms in
  let s, t = wrap ~track_races:false s0 in
  Fun.protect ~finally:unhook @@ fun () ->
  let req = s.Scheme.malloc 1024 in
  let resp = s.Scheme.malloc 1024 in
  let canary = s.Scheme.malloc 64 in
  let ca = s.Scheme.addr_of canary in
  Memsys.fill ms ~addr:ca ~len:64 ~byte:0x5A;
  let ra = s.Scheme.addr_of req in
  Memsys.fill ms ~addr:ra ~len:req_image_len ~byte:0x41;
  taint_region t ~addr:ra ~len:req_image_len ~label:(v.Handlers.v_name ^ ".req");
  List.iter
    (fun (off, value) ->
       Memsys.store ms ~addr:(ra + off) ~width:4 value;
       register_value t ~addr:(ra + off) ~width:4 ~value)
    v.Handlers.v_fields;
  let h =
    { Handlers.s; req; req_len = req_image_len; resp; resp_len = 1024;
      note_phase = phase t }
  in
  let outcome =
    match v.Handlers.v_run h with
    | () -> "completed"
    | exception Violation _ -> "trapped"
    | exception Sb_vmem.Vmem.Fault _ -> "fault"
    | exception App_crash _ -> "crash"
  in
  let corrupted = ref false in
  for i = 0 to 63 do
    if Memsys.load ms ~addr:(ca + i) ~width:1 <> 0x5A then corrupted := true
  done;
  let fs = findings t in
  let status =
    if outcome = "trapped" then "trapped"
    else if fs <> [] || t.wild > 0 || !corrupted || outcome <> "completed" then
      "flagged"
    else "ok"
  in
  {
    cc_class = v.Handlers.v_name;
    cc_scheme = scheme;
    cc_status = status;
    cc_outcome = outcome;
    cc_findings = fs;
    cc_total = total t;
    cc_wild = t.wild;
    cc_corrupted = !corrupted;
    cc_subset_ok = subset_ok t;
  }

(** The Table-4-style scheme columns: unprotected, the paper's scheme,
    and the two comparison schemes its evaluation leans on. *)
let matrix_schemes = Sb_schemes.Scheme_info.headline_names

(** Every corpus class under every scheme, fanned out with
    {!Parallel_runner} (each cell owns a fresh machine, so cells are
    independent and the result is order-preserving and deterministic
    for any [jobs]). *)
let corpus_sweep ?jobs ?(schemes = matrix_schemes) () : corpus_cell list =
  let cells =
    List.concat_map
      (fun (v : Handlers.variant) -> List.map (fun sc -> (v, sc)) schemes)
      Handlers.variants
  in
  Parallel_runner.map_list ?jobs (fun (v, sc) -> run_variant ~scheme:sc v) cells

let cell_kinds c =
  List.sort_uniq compare
    (List.map (fun f -> Finding.kind_name f.Finding.kind) c.cc_findings)

(* ---------- the committed matrix ---------- *)

(** Column set deliberately excludes addresses and cycle counts so the
    bytes are identical across engines and [--jobs]. *)
let matrix_schema =
  Tsv.schema "interface_matrix"
    [ ("class", Tsv.Text); ("scheme", Tsv.Text);
      ("status", Tsv.One_of [ "ok"; "flagged"; "trapped" ]);
      ("outcome", Tsv.One_of [ "completed"; "trapped"; "fault"; "crash" ]);
      ("findings", Tsv.Nat 0); ("kinds", Tsv.Text); ("wild", Tsv.Nat 0);
      ("corrupted", Tsv.One_of [ "0"; "1" ]) ]

let matrix_tsv cells =
  Tsv.to_string matrix_schema
    (List.map
       (fun c ->
          let kinds = match cell_kinds c with [] -> "-" | ks -> String.concat "," ks in
          [ c.cc_class; c.cc_scheme; c.cc_status; c.cc_outcome;
            string_of_int (List.length c.cc_findings); kinds; string_of_int c.cc_wild;
            (if c.cc_corrupted then "1" else "0") ])
       cells)

(** The Table-4 pins. Returns human-readable problems; empty = good:
    - the disciplined "good" handler is clean under every scheme;
    - unprotected (native) lets every vulnerability class through;
    - SGXBounds neutralizes every class — the violation traps, or the
      class simply has nothing left to find;
    - the audit-subset invariant held in every cell. *)
let verify_matrix (cells : corpus_cell list) : string list =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun c ->
       if not c.cc_subset_ok then
         bad "%s/%s: dynamic findings escaped the unified set" c.cc_class
           c.cc_scheme;
       if c.cc_class = "good" && c.cc_status <> "ok" then
         bad "good/%s: expected clean, got %s" c.cc_scheme c.cc_status;
       if c.cc_class <> "good" && c.cc_scheme = "native"
          && c.cc_status <> "flagged" then
         bad "%s/native: expected flagged, got %s" c.cc_class c.cc_status;
       if c.cc_class <> "good" && c.cc_scheme = "sgxbounds"
          && c.cc_status = "flagged" && c.cc_wild > 0 then
         bad "%s/sgxbounds: wild access survived instrumentation" c.cc_class;
       if c.cc_scheme = "sgxbounds" && c.cc_corrupted then
         bad "%s/sgxbounds: canary corrupted despite instrumentation"
           c.cc_class)
    cells;
  List.rev !problems

(* ---------- symbolic findings as fuzz seeds ---------- *)

(** Translate one finding into a minimal {!Sb_fuzz.Trace.t} the fuzz
    oracle can replay under every scheme and engine. Offsets are folded
    into the oracle's modelled bad-access window (object end + at most
    2 KiB) so post-violation behaviour stays layout-independent. *)
let seed_of_finding (f : Finding.t) : Trace.t option =
  let size = 1024 in
  let clamp_off off =
    if off >= size + 16 && off < size + 2048 then off
    else size + 16 + (abs off mod 1800)
  in
  let width = max 1 (min 8 f.Finding.extent) in
  let raw_off = if f.Finding.obj <> 0 then f.Finding.addr - f.Finding.obj
    else size + 128 in
  match f.Finding.kind with
  | Finding.Tainted_deref | Finding.Tainted_extent | Finding.Double_fetch
  | Finding.Unchecked_uncovered | Finding.Safe_oob ->
    Some
      [| Trace.Alloc { id = 0; size; region = Trace.Heap };
         Trace.Store { id = 0; off = clamp_off raw_off; width; value = 0x41;
                       safe = false } |]
  | Finding.Tainted_libc | Finding.Check_oob | Finding.Libc_mismatch
  | Finding.Libc_unchecked ->
    let len = max (size + 16) (min f.Finding.extent (size + 512)) in
    Some
      [| Trace.Alloc { id = 0; size; region = Trace.Heap };
         Trace.Alloc { id = 1; size; region = Trace.Heap };
         Trace.Memcpy { dst = 1; dst_off = 0; src = 0; src_off = 0; len } |]
  | Finding.Phase_disorder | Finding.Data_race | Finding.Meta_race -> None

(** Seed traces from an unprotected corpus sweep — one per distinct
    translatable finding, deterministic order. *)
let seed_traces (cells : corpus_cell list) : Trace.t list =
  List.concat_map
    (fun c ->
       if c.cc_scheme <> "native" then []
       else List.filter_map seed_of_finding c.cc_findings)
    cells

(** Deterministically expand [seeds] to [total] traces by cycling the
    seed list and jittering store offsets/widths inside the modelled
    bad-access window. *)
let expand_seeds ~total (seeds : Trace.t list) : Trace.t list =
  if seeds = [] || total <= 0 then []
  else
    let widths = [| 1; 2; 4; 8 |] in
    List.init total (fun i ->
        let base = List.nth seeds (i mod List.length seeds) in
        let jitter = i / List.length seeds in
        Array.map
          (function
            | Trace.Store { id; off; width = _; value; safe } ->
              Trace.Store
                { id; off = off + (jitter mod 16);
                  width = widths.(i mod Array.length widths); value; safe }
            | Trace.Memcpy { dst; dst_off; src; src_off; len } ->
              Trace.Memcpy { dst; dst_off; src; src_off;
                             len = len + (jitter mod 16) }
            | ev -> ev)
          base)

(* ---------- reports ---------- *)

let json_of_cell c =
  Json.Obj
    [
      ("class", Json.Str c.cc_class);
      ("scheme", Json.Str c.cc_scheme);
      ("status", Json.Str c.cc_status);
      ("outcome", Json.Str c.cc_outcome);
      ("findings", Json.Int (List.length c.cc_findings));
      ("total", Json.Int c.cc_total);
      ("wild", Json.Int c.cc_wild);
      ("corrupted", Json.Bool c.cc_corrupted);
      ("subset_ok", Json.Bool c.cc_subset_ok);
      ("kinds", Json.List (List.map (fun k -> Json.Str k) (cell_kinds c)));
      ("detail", Json.List (List.map Finding.to_json c.cc_findings));
    ]

let json_report (cells : corpus_cell list) =
  let flagged = List.filter (fun c -> c.cc_status <> "ok") cells in
  Json.Obj
    [
      ("cells", Json.List (List.map json_of_cell cells));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.Int (List.length cells));
            ("not_ok", Json.Int (List.length flagged));
            ( "findings",
              Json.Int
                (List.fold_left
                   (fun acc c -> acc + List.length c.cc_findings)
                   0 cells) );
            ( "subset_ok",
              Json.Bool (List.for_all (fun c -> c.cc_subset_ok) cells) );
          ] );
    ]

let print_cells cells =
  List.iter
    (fun c ->
       Fmt.pr "%-14s %-11s %-8s %-9s findings=%d wild=%d%s@." c.cc_class
         c.cc_scheme c.cc_status c.cc_outcome
         (List.length c.cc_findings) c.cc_wild
         (if c.cc_corrupted then " CANARY-CORRUPTED" else "");
       List.iter (fun f -> Fmt.pr "    %a@." Finding.pp f) c.cc_findings)
    cells

(* ---------- selftests ---------- *)

type selftest = { sx_name : string; sx_pass : bool; sx_detail : string }

let find_cell cells cls scheme =
  List.find_opt (fun c -> c.cc_class = cls && c.cc_scheme = scheme) cells

(** The signature kind each TeeRex class must produce on the
    unprotected scheme. *)
let signature_kinds =
  [
    ("ptr-deref", "tainted-deref");
    ("len-overflow", "tainted-extent");
    ("libc-len", "tainted-libc");
    ("double-fetch", "double-fetch");
    ("order", "phase-disorder");
  ]

let selftests () : selftest list =
  let cells = corpus_sweep ~schemes:[ "native"; "sgxbounds" ] () in
  let cell cls scheme = find_cell cells cls scheme in
  let tests = ref [] in
  let add name pass detail =
    tests := { sx_name = name; sx_pass = pass; sx_detail = detail } :: !tests
  in
  List.iter
    (fun (cls, kind) ->
       (match cell cls "native" with
        | Some c ->
          add (cls ^ "-native-flagged")
            (c.cc_status = "flagged")
            (Printf.sprintf "status=%s" c.cc_status);
          add (cls ^ "-native-kind")
            (List.mem kind (cell_kinds c))
            (Printf.sprintf "kinds=%s" (String.concat "," (cell_kinds c)))
        | None -> add (cls ^ "-native-flagged") false "cell missing");
       match cell cls "sgxbounds" with
       | Some c ->
         add (cls ^ "-sgxbounds-neutralized")
           (c.cc_status = "trapped" || c.cc_status = "ok")
           (Printf.sprintf "status=%s outcome=%s" c.cc_status c.cc_outcome)
       | None -> add (cls ^ "-sgxbounds-neutralized") false "cell missing")
    signature_kinds;
  List.iter
    (fun scheme ->
       match cell "good" scheme with
       | Some c ->
         add ("good-" ^ scheme ^ "-clean")
           (c.cc_status = "ok")
           (Printf.sprintf "status=%s findings=%d" c.cc_status
              (List.length c.cc_findings))
       | None -> add ("good-" ^ scheme ^ "-clean") false "cell missing")
    [ "native"; "sgxbounds" ];
  add "audit-subset"
    (List.for_all (fun c -> c.cc_subset_ok) cells)
    "dynamic findings are a subset of unified findings in every cell";
  let seeds = seed_traces cells in
  add "seeds-nonempty"
    (List.length seeds >= 3)
    (Printf.sprintf "%d seed traces from native findings" (List.length seeds));
  List.rev !tests

let print_selftests tests =
  List.iter
    (fun st ->
       Fmt.pr "%-34s %s  (%s)@." st.sx_name
         (if st.sx_pass then "PASS" else "FAIL")
         st.sx_detail)
    tests;
  let failed = List.filter (fun st -> not st.sx_pass) tests in
  Fmt.pr "symex selftests: %d/%d passed@."
    (List.length tests - List.length failed)
    (List.length tests);
  failed = []
