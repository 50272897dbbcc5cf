(** Open-loop request scheduler: the serving half of the load generator.

    [run] multiplexes an arrival schedule (from {!Loadgen}) over [workers]
    cooperative {!Sb_mt.Mt} threads of one simulated machine. Arrivals are
    admitted into a bounded accept queue; when the queue is full, the
    request is shed and counted — the server degrades by dropping, it
    never wedges. Each admitted request is served by the app handler on
    whichever worker thread dequeues it, and its sojourn time (completion
    minus arrival, queueing included) lands in a power-of-two histogram.

    Determinism: the worker loop consults only simulated clocks, the
    min-clock {!Sb_mt.Mt} schedule and host-side queue state derived from
    them, so a run is a pure function of (machine config, scheme, handler,
    config) — identical on the fast and naive memory engines and for any
    host parallelism around it.

    Termination: every arrival is eventually admitted or shed (idle
    workers jump their clock to the next arrival), every admitted request
    is served by the next worker to observe it, and workers exit once the
    schedule is exhausted and the queue drained — so overload slows
    completion but cannot deadlock. *)

module Memsys = Sb_sgx.Memsys
module Mt = Sb_mt.Mt
module Telemetry = Sb_telemetry.Telemetry
module Histogram = Sb_telemetry.Metrics.Histogram
module Rng = Sb_machine.Rng

type config = {
  workers : int;        (** simulated server threads, >= 1 *)
  queue_cap : int;      (** accept-queue bound, >= 1 *)
  requests : int;       (** offered load: total arrivals *)
  rate_rps : float;     (** offered rate, requests per simulated second *)
  process : Loadgen.process;
  seed : int;           (** arrival-schedule seed *)
}

let default =
  {
    workers = 4;
    queue_cap = 64;
    requests = 2000;
    rate_rps = 50_000.;
    process = Loadgen.Poisson;
    seed = 1;
  }

type stats = {
  offered : int;
  completed : int;
  dropped : int;        (** shed at the accept queue *)
  elapsed : int;        (** cycles from first arrival opportunity to last completion *)
  max_queue : int;      (** high-water mark of the accept queue *)
  latency : Histogram.t;     (** sojourn time: completion - arrival *)
  queue_wait : Histogram.t;  (** dequeue - arrival *)
}

let throughput_rps st =
  if st.elapsed <= 0 then 0.
  else float_of_int st.completed /. (float_of_int st.elapsed /. Loadgen.cycles_per_sec)

let drop_ratio st =
  if st.offered = 0 then 0. else float_of_int st.dropped /. float_of_int st.offered

let summary st = Latency.summary st.latency

(** [run ?trace ms cfg handler] drives [handler ~worker] once per served
    request. The handler runs on the worker's Mt thread and is expected
    to advance that thread's simulated clock (memory traffic, ALU work,
    SCONE calls); it yields implicitly through [Memsys.maybe_yield].

    With [trace], every served request is recorded as a {!Spans.span}
    (arrival → dequeue → completion, exec-window cycles split by memsys
    class from the worker's {!Memsys.thread_cycles}) into the caller's log; the
    slowest-K reservoir survives the run for export. Tracing only
    observes: simulated stats are identical with and without it. *)
let run ?trace ms cfg handler =
  if cfg.workers < 1 then invalid_arg "Service.run: workers must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Service.run: queue_cap must be >= 1";
  let rng = Rng.create cfg.seed in
  let arr =
    Loadgen.arrivals ~rng ~process:cfg.process ~rate_rps:cfg.rate_rps
      ~n:cfg.requests
  in
  let tel = Memsys.telemetry ms in
  let base = Memsys.get_clock ms (Memsys.current_thread ms) in
  let q = Queue.create () in
  let next = ref 0 in
  let dropped = ref 0 and completed = ref 0 and max_queue = ref 0 in
  let latency = Histogram.create "service.latency" in
  let queue_wait = Histogram.create "service.queue_wait" in
  (* Admission control: pull every arrival whose timestamp has passed
     into the accept queue; a full queue sheds (drop + count) instead of
     blocking the accept loop. Elements are (arrival index, arrival
     time) so a traced run can name the request in its span. *)
  let admit now =
    while !next < cfg.requests && base + arr.(!next) <= now do
      if Queue.length q >= cfg.queue_cap then begin
        incr dropped;
        Telemetry.incr tel "service.dropped"
      end
      else begin
        Queue.add (!next, base + arr.(!next)) q;
        if Queue.length q > !max_queue then max_queue := Queue.length q
      end;
      incr next
    done
  in
  let worker w () =
    let rec loop () =
      let tid = Memsys.current_thread ms in
      let now = Memsys.get_clock ms tid in
      admit now;
      match Queue.take_opt q with
      | Some (id, arrived) ->
        Histogram.observe queue_wait (now - arrived);
        (match trace with
         | Some log -> Spans.begin_exec log ms ~worker:w
         | None -> ());
        handler ~worker:w;
        let fin = Memsys.get_clock ms (Memsys.current_thread ms) in
        Histogram.observe latency (fin - arrived);
        (match trace with
         | Some log -> Spans.finish log ms ~id ~worker:w ~arrival:arrived ~dequeue:now ~fin
         | None -> ());
        incr completed;
        Telemetry.incr tel "service.completed";
        Mt.yield ();
        loop ()
      | None ->
        if !next < cfg.requests then begin
          (* idle: sleep until the next scheduled arrival *)
          let wake = base + arr.(!next) in
          if wake > now then Memsys.set_clock ms tid wake;
          Mt.yield ();
          loop ()
        end
        (* schedule exhausted and queue drained: worker exits *)
    in
    loop ()
  in
  Mt.run ms (Array.init cfg.workers (fun w -> worker w));
  (* Mt.run leaves thread 0 at the max clock over the region *)
  let elapsed = Memsys.get_clock ms 0 - base in
  {
    offered = cfg.requests;
    completed = !completed;
    dropped = !dropped;
    elapsed;
    max_queue = !max_queue;
    latency;
    queue_wait;
  }
