(** The telemetry hub: a named-counter/histogram registry, a span stack
    and a bounded event ring behind one [enabled] switch.

    Layers of the simulator hold a [t] and call [incr]/[observe]/
    [event]/[span_*] unconditionally; when the hub is disabled every one
    of those is a single branch and no allocation, so tier-1 bench
    numbers are unaffected by the instrumentation being compiled in.
    Timestamps come from [clock], which the memory system points at its
    simulated-cycle counter ({!Sb_sgx.Memsys.create}). *)

type t = {
  enabled : bool;
  counters : (string, Metrics.Counter.t) Hashtbl.t;
  histograms : (string, Metrics.Histogram.t) Hashtbl.t;
  ring : Events.ring;
  mutable clock : unit -> int;
  mutable tid : unit -> int;
  mutable open_spans : (string * string * int) list;  (* name, cat, start ts *)
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ?(enabled = true) () =
  {
    enabled;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    ring = Events.create ~capacity:(if enabled then capacity else 0);
    clock = (fun () -> 0);
    tid = (fun () -> 0);
    open_spans = [];
  }

(** A hub that drops everything — the zero-cost-when-off default. *)
let disabled () = create ~capacity:0 ~enabled:false ()

let is_enabled t = t.enabled
let set_clock t f = t.clock <- f
let set_tid t f = t.tid <- f
let now t = t.clock ()

(* ---------- counters and histograms ---------- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = Metrics.Counter.create name in
    Hashtbl.replace t.counters name c;
    c

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Metrics.Histogram.create name in
    Hashtbl.replace t.histograms name h;
    h

let incr t ?(by = 1) name = if t.enabled then Metrics.Counter.incr ~by (counter t name)
let observe t name v = if t.enabled then Metrics.Histogram.observe (histogram t name) v

let counters t =
  Hashtbl.fold (fun name c acc -> (name, Metrics.Counter.value c) :: acc) t.counters []
  |> List.sort compare

(* Reading the clock first lets its owner deliver observations it holds
   back (the memory system's same-line batch), so the histograms are
   current. *)
let histograms t =
  ignore (t.clock ());
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------- events and spans ---------- *)

let event t ?(cat = "event") ?(args = []) name =
  if t.enabled then
    Events.push t.ring
      { Events.ts = t.clock (); tid = t.tid (); name; cat; ph = Events.Instant; args }

let span_begin t ?(cat = "phase") name =
  if t.enabled then t.open_spans <- (name, cat, t.clock ()) :: t.open_spans

(** Close the innermost span opened with [span_begin]: emits one Chrome
    "complete" event and feeds the duration to histogram
    ["span:"^name]. Unbalanced calls are ignored. *)
let span_end t =
  if t.enabled then
    match t.open_spans with
    | [] -> ()
    | (name, cat, start) :: rest ->
      t.open_spans <- rest;
      let dur = max 0 (t.clock () - start) in
      Metrics.Histogram.observe (histogram t ("span:" ^ name)) dur;
      Events.push t.ring
        { Events.ts = start; tid = t.tid (); name; cat; ph = Events.Complete dur; args = [] }

let with_span t ?cat name f =
  span_begin t ?cat name;
  Fun.protect ~finally:(fun () -> span_end t) f

let events t = Events.to_list t.ring
let dropped_events t = Events.dropped t.ring

(* ---------- lifecycle ---------- *)

(** Zero every counter and histogram, drop all events and open spans.
    The registry itself (names) survives, so sinks attached by name keep
    working across runs. *)
let reset t =
  Hashtbl.iter (fun _ c -> Metrics.Counter.reset c) t.counters;
  Hashtbl.iter (fun _ h -> Metrics.Histogram.reset h) t.histograms;
  Events.clear t.ring;
  t.open_spans <- []
