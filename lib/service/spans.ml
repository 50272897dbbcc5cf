(** Per-request trace spans: one record per served request from arrival
    through queue wait and worker execution, with the execution window's
    simulated cycles split by {!Sb_sgx.Memsys.profile_buckets} class.

    The log keeps a bounded reservoir of the K {e slowest} requests by
    sojourn time — the exemplars that explain a Figure-13 knee: a slow
    request whose cycles sit in [queue_wait] was a queueing victim,
    one whose execution cycles sit in the EPC-heavy classes was an EPC
    thrash victim. Admission is by the total order (sojourn, id), so the
    retained set is a pure function of the request stream — independent
    of memory engine and host parallelism, like the service layer
    itself.

    Class cycles are read from the machine: the worker's row of
    {!Sb_sgx.Memsys.thread_cycles} is taken at dequeue and again when the
    handler returns, and the span keeps the difference. Charges outside
    any request window (idle, admission) land in no span, and observing
    costs nothing per charge. *)

module Memsys = Sb_sgx.Memsys
module Events = Sb_telemetry.Events
module Json = Sb_telemetry.Json

type span = {
  sp_id : int;       (** arrival index in the offered schedule *)
  sp_worker : int;
  sp_arrival : int;  (** cycles: joined the accept queue *)
  sp_dequeue : int;  (** cycles: picked up by the worker *)
  sp_fin : int;      (** cycles: handler returned *)
  sp_classes : int array;  (** exec-window cycles per profile bucket *)
}

let queue_wait sp = sp.sp_dequeue - sp.sp_arrival
let exec sp = sp.sp_fin - sp.sp_dequeue
let sojourn sp = sp.sp_fin - sp.sp_arrival

type log = {
  cap : int;
  buckets : string array;
  mutable reservoir : span list;   (* unsorted, <= cap *)
  mutable least : span option;     (* the reservoir's minimum once it is full *)
  mutable recorded : int;          (* spans offered to the reservoir *)
  totals : int array;              (* exec-window cycles per bucket, all requests *)
  cur : int array option array;    (* per-worker row at dequeue *)
}

let create ?(cap = 8) ~workers () =
  if cap < 1 then invalid_arg "Spans.create: cap must be >= 1";
  let n = Array.length Memsys.profile_buckets in
  {
    cap;
    buckets = Memsys.profile_buckets;
    reservoir = [];
    least = None;
    recorded = 0;
    totals = Array.make n 0;
    cur = Array.make (max 1 workers) None;
  }

(** Open the worker's execution window. The worker runs as simulated
    thread [worker] of [ms]. *)
let begin_exec log ms ~worker = log.cur.(worker) <- Some (Memsys.thread_cycles ms worker)

(* Close the worker's window: its per-bucket cycles since [begin_exec],
   also added to [totals]. *)
let close log ms ~worker =
  let now = Memsys.thread_cycles ms worker in
  (match log.cur.(worker) with
   | Some start ->
     for i = 0 to Array.length now - 1 do
       now.(i) <- now.(i) - start.(i);
       log.totals.(i) <- log.totals.(i) + now.(i)
     done
   | None -> Array.fill now 0 (Array.length now) 0);
  log.cur.(worker) <- None;
  now

(** Close the worker's window without recording a span — the request
    died with its enclave (fleet instance kill) and must not count
    toward [recorded]. Its cycles still go to [totals]: the machine
    really spent them. *)
let abort log ms ~worker = ignore (close log ms ~worker)

(* Reservoir admission order: lexicographic (sojourn, id). Unique ids
   make it a total order, so "keep the cap largest" has exactly one
   answer. *)
let slower a b =
  let sa = sojourn a and sb = sojourn b in
  sa > sb || (sa = sb && a.sp_id > b.sp_id)

let least_of = function
  | [] -> None
  | s :: rest -> Some (List.fold_left (fun m s -> if slower m s then s else m) s rest)

let finish log ms ~id ~worker ~arrival ~dequeue ~fin =
  let classes = close log ms ~worker in
  let sp =
    { sp_id = id; sp_worker = worker; sp_arrival = arrival; sp_dequeue = dequeue;
      sp_fin = fin; sp_classes = classes }
  in
  log.recorded <- log.recorded + 1;
  match log.least with
  | None ->
    log.reservoir <- sp :: log.reservoir;
    if List.length log.reservoir = log.cap then log.least <- least_of log.reservoir
  | Some mn ->
    if slower sp mn then begin
      log.reservoir <- sp :: List.filter (fun s -> s != mn) log.reservoir;
      log.least <- least_of log.reservoir
    end

(** Retained exemplars, slowest first (ties by id descending — the
    reverse of the admission order, also total). *)
let slowest log =
  List.sort (fun a b -> if slower a b then -1 else if slower b a then 1 else 0) log.reservoir

let recorded log = log.recorded
let totals log = Array.copy log.totals

(* ---------- export ---------- *)

(** Chrome trace_event rendering of the exemplars: per request one
    "wait" complete-event (arrival → dequeue, when nonzero) and one
    "exec" complete-event (dequeue → fin) on the worker's track, the
    exec event carrying the per-class cycles as args. Feed these through
    {!Sb_telemetry.Sink.chrome_trace} by grafting them onto a
    snapshot's event list. *)
let events log =
  List.concat_map
    (fun sp ->
       let name = Printf.sprintf "req:%d" sp.sp_id in
       let wait =
         if queue_wait sp > 0 then
           [ { Events.ts = sp.sp_arrival; tid = sp.sp_worker; name = name ^ " wait";
               cat = "queue"; ph = Events.Complete (queue_wait sp); args = [] } ]
         else []
       in
       let args =
         List.filteri (fun i _ -> sp.sp_classes.(i) > 0)
           (Array.to_list (Array.mapi (fun i b -> (b, string_of_int sp.sp_classes.(i))) log.buckets))
       in
       wait
       @ [ { Events.ts = sp.sp_dequeue; tid = sp.sp_worker; name = name ^ " exec";
             cat = "request"; ph = Events.Complete (exec sp); args } ])
    (slowest log)

let json_of_span log sp =
  Json.Obj
    [
      ("id", Json.Int sp.sp_id);
      ("worker", Json.Int sp.sp_worker);
      ("arrival", Json.Int sp.sp_arrival);
      ("queue_wait", Json.Int (queue_wait sp));
      ("exec", Json.Int (exec sp));
      ("sojourn", Json.Int (sojourn sp));
      ( "classes",
        Json.Obj
          (Array.to_list
             (Array.mapi (fun i b -> (b, Json.Int sp.sp_classes.(i))) log.buckets)) );
    ]

let to_json log =
  Json.Obj
    [
      ("recorded", Json.Int (recorded log));
      ("reservoir_cap", Json.Int log.cap);
      ( "exec_class_totals",
        Json.Obj
          (Array.to_list
             (Array.mapi (fun i b -> (b, Json.Int log.totals.(i))) log.buckets)) );
      ("slowest", Json.List (List.map (json_of_span log) (slowest log)));
    ]
