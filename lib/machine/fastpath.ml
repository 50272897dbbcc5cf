(** Engine selection for the memory-engine implementations.

    The simulator keeps two behaviourally identical implementations of
    its hot layers (cache probe, address translation, EPC residency,
    access charging):

    - [Naive] — the straightforward reference code every optimisation is
      proven against;
    - [Fast] — MRU fast paths, translation memos, unboxed codecs and
      same-line streak batching.

    Selection is sampled once per component at [create] time, so a
    component never changes engine mid-life and two components with
    different engines can coexist (that is what the differential tests
    and the two-engine fuzz oracle do).

    Both engines must produce bit-for-bit identical simulation results
    (cycles, hit/miss counts, EPC faults, attribution) — only host
    wall-clock may differ. [test/test_fastpath.ml] pins this.

    Set [SGXBOUNDS_ENGINE] to [naive] or [fast] to pick the start-up
    engine (any other value is rejected at start-up). The default is
    [Fast]. *)

type kind = Naive | Fast

let kind_name = function Naive -> "naive" | Fast -> "fast"

let kind_of_string = function
  | "naive" -> Some Naive
  | "fast" -> Some Fast
  | _ -> None

let initial_kind () =
  match Sys.getenv_opt "SGXBOUNDS_ENGINE" with
  | Some s ->
    (match kind_of_string (String.lowercase_ascii (String.trim s)) with
     | Some k -> k
     | None ->
       Printf.eprintf
         "sgxbounds: unknown SGXBOUNDS_ENGINE=%S (expected naive|fast)\n%!" s;
       exit 2)
  | None -> Fast

(* A bool cell so the cross-domain selection stays a word-sized
   immediate: [true] = Fast. *)
let cell : bool Atomic.t = Atomic.make (initial_kind () = Fast)

let kind () = if Atomic.get cell then Fast else Naive

(** [true] under the [Fast] engine. *)
let is_enabled () = Atomic.get cell

(** Run [f] with the engine forced to [k], restoring the previous
    selection afterwards. Only components *created* inside [f] are
    affected. *)
let with_kind k f =
  let prev = Atomic.get cell in
  Atomic.set cell (k = Fast);
  Fun.protect ~finally:(fun () -> Atomic.set cell prev) f

(** Name of the currently selected engine ("naive" | "fast"). *)
let current_name () = kind_name (kind ())
