(** Host-time observation for the benchmark's traced run.

    Two recorders, both living in the benchmark's own code around calls
    into the simulator's public API:

    - {!span}: coarse spans (name, start, end, parent, unit id) around
      machine creation, scheme construction, app preload, a unit's run,
      [Service.run], each service handler call and [Fleet.run]. Spans are
      kept in memory and written out when the benchmark ends; self time
      is a span's duration minus the part its direct children cover.
    - {!Slices}: a timing meta-scheme that interposes on every
      {!Sb_protection.Scheme.t} operation through [~wrap]-style
      wrapping. Scheme operations run millions of times per unit, so
      they are aggregated (calls and nanoseconds per family), not
      recorded as spans. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  unit_id : int;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start : int;   (** host ns, monotonic clock *)
  stop : int;
}

type t = {
  on : bool;
  mutable spans : span list;  (* most recent first *)
  mutable next : int;
  mutable stack : int list;   (* open span ids, innermost first *)
  mutable unit_id : int;
}

let create ~on = { on; spans = []; next = 0; stack = []; unit_id = 0 }

(** A recorder that records nothing: {!span} is then a direct call. *)
let off = create ~on:false

let set_unit t id = if t.on then t.unit_id <- id

(** [span t name f] runs [f] inside a span named [name]. Spans nest by
    dynamic extent, so callers must not let a span's extent interleave
    with another's (no simulated-thread switch inside a span that opens
    spans on several threads). *)
let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; unit_id = t.unit_id; parent; start; stop } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** Recorded spans in start order (ids are assigned when a span opens). *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

let duration sp = sp.stop - sp.start

(** Self time of every span: duration minus the durations of its direct
    children, as [(span, self_ns)] in start order. *)
let self_times t =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
       if sp.parent >= 0 then
         Hashtbl.replace child_ns sp.parent
           (duration sp + Option.value ~default:0 (Hashtbl.find_opt child_ns sp.parent)))
    t.spans;
  List.map
    (fun sp -> (sp, duration sp - Option.value ~default:0 (Hashtbl.find_opt child_ns sp.id)))
    (spans t)

(** Durations of the spans named [name], in start order. *)
let durations t name =
  List.filter_map (fun sp -> if sp.name = name then Some (duration sp) else None) (spans t)

let total t name = List.fold_left ( + ) 0 (durations t name)

(** Time-slice attribution of scheme operations.

    Every host nanosecond between the opening and the closing of a
    window is charged to exactly one bucket: the scheme-operation family
    the running simulated thread is inside, or [self] (the workload's
    own code, the Mt scheduler, Simlibc bodies, the service loop). The
    clock is read at every operation entry and exit and the elapsed
    slice goes to the bucket that was current at the previous event.
    Under {!Sb_mt.Mt} a simulated thread can yield inside an operation;
    the slice that straddles the switch is charged to the thread seen
    last, so the families plus [self] always re-add to the window, with
    an error of at most one slice per switch. *)
module Slices = struct
  module Scheme = Sb_protection.Scheme
  module Memsys = Sb_sgx.Memsys

  let families = [| "access"; "ptr"; "hoisted"; "alloc"; "libc_check" |]
  let access = 0
  let ptr = 1
  let hoisted = 2
  let alloc = 3
  let libc = 4
  let self = Array.length families

  type nonrec t = {
    calls : int array;
    ns : int array;         (* families, then [self] *)
    current : int array;    (* per simulated thread: open bucket *)
    mutable last_ts : int;
    mutable last_tid : int;
    mutable opened : bool;  (* a window is open *)
  }

  let create () =
    {
      calls = Array.make self 0;
      ns = Array.make (self + 1) 0;
      current = Array.make 64 self;
      last_ts = 0;
      last_tid = 0;
      opened = false;
    }

  let charge t =
    let ts = now () in
    if t.opened then begin
      let b = t.current.(t.last_tid) in
      t.ns.(b) <- t.ns.(b) + (ts - t.last_ts)
    end;
    t.last_ts <- ts

  (** Start charging: from here on every slice lands in a bucket. *)
  let open_window t =
    Array.fill t.current 0 (Array.length t.current) self;
    t.last_tid <- 0;
    t.last_ts <- now ();
    t.opened <- true

  let close_window t =
    if t.opened then begin
      charge t;
      t.opened <- false
    end

  let enter t ms fam =
    charge t;
    let tid = Memsys.current_thread ms in
    t.current.(tid) <- fam;
    t.last_tid <- tid;
    t.calls.(fam) <- t.calls.(fam) + 1

  let leave t ms =
    charge t;
    let tid = Memsys.current_thread ms in
    t.current.(tid) <- self;
    t.last_tid <- tid

  (** [wrap t s]: the timing meta-scheme. Observation only: every
      operation forwards to [s] unchanged. *)
  let wrap t (s : Scheme.t) : Scheme.t =
    let ms = s.Scheme.ms in
    let t1 fam f a =
      enter t ms fam;
      match f a with
      | v ->
        leave t ms;
        v
      | exception e ->
        leave t ms;
        raise e
    in
    let t2 fam f a b =
      enter t ms fam;
      match f a b with
      | v ->
        leave t ms;
        v
      | exception e ->
        leave t ms;
        raise e
    in
    let t3 fam f a b c =
      enter t ms fam;
      match f a b c with
      | v ->
        leave t ms;
        v
      | exception e ->
        leave t ms;
        raise e
    in
    {
      s with
      malloc = t1 alloc s.malloc;
      calloc = t2 alloc s.calloc;
      realloc = t2 alloc s.realloc;
      free = t1 alloc s.free;
      global = t1 alloc s.global;
      stack_push = t1 alloc s.stack_push;
      stack_alloc = t1 alloc s.stack_alloc;
      stack_pop = t1 alloc s.stack_pop;
      offset = t2 ptr s.offset;
      addr_of = t1 ptr s.addr_of;
      load = t2 access s.load;
      store = t3 access s.store;
      safe_load = t2 access s.safe_load;
      safe_store = t3 access s.safe_store;
      check_range = t3 hoisted s.check_range;
      load_unchecked = t2 hoisted s.load_unchecked;
      store_unchecked = t3 hoisted s.store_unchecked;
      load_ptr = t1 ptr s.load_ptr;
      store_ptr = t2 ptr s.store_ptr;
      load_ptr_unchecked = t1 hoisted s.load_ptr_unchecked;
      store_ptr_unchecked = t2 hoisted s.store_ptr_unchecked;
      libc_check = t3 libc s.libc_check;
    }
end
