(** The benchmark's yardsticks for the host's speed.

    On a shared host the same unit can run 1.5x longer for minutes at a
    time, and its CPU time grows with it: the thread is not descheduled,
    it runs slower. Two fixed reference kernels, timed between units,
    slow down in step. They call nothing from the simulator, so no
    change to the simulator moves them.

    - The heap kernel is allocation-heavy OCaml, like a simulated run:
      it fills a hash table with boxed values, so it pays for hashing,
      minor and major collections and promotion. A unit's run time
      divided by the heap kernel's time around it is the run's cost in
      kernel runs ("cal"). It stays put when the host's speed drifts,
      and it moves when the simulator's code gets faster or slower.
    - The fresh-memory kernel allocates and fills a 40 MiB buffer. That
      is above the C allocator's largest mmap threshold, so every buffer
      is freshly mapped and every page faults in. Set-up is mostly that
      kind of work (a new machine's memory), and its time follows this
      kernel, not the heap kernel. Set-up must be reported in seconds,
      so it is scaled to {!fresh_reference_ns}: the seconds it would
      take on a host where this kernel takes that long. *)

type t = {
  heap_ns : float;   (** the heap kernel *)
  fresh_ns : float;  (** the fresh-memory kernel *)
}

let entries = 200_000
let fresh_bytes = 40 lsl 20

(** The fresh-memory kernel's time on a quiet 2-vCPU Xeon VM, the host
    speed that scaled set-up seconds refer to. *)
let fresh_reference_ns = 25e6

(** A sample is taken after at least this much host time of units, so
    that units of a few tens of milliseconds share one. *)
let every_ns = 250_000_000

let heap_kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to entries do
    Hashtbl.replace h (i * 7919) (Some (i, float_of_int i))
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h))

let fresh_kernel () = ignore (Sys.opaque_identity (Bytes.make fresh_bytes 'x'))

(* Each kernel runs on a heap that a full major collection has just
   emptied of garbage. *)
let time f =
  Gc.full_major ();
  let t0 = Tracer.now () in
  f ();
  Tracer.now () - t0

let sample () =
  let heap = time heap_kernel in
  let fresh = time fresh_kernel in
  { heap_ns = float_of_int heap; fresh_ns = float_of_int fresh }

(** The mean of two samples: the yardstick for the units between them. *)
let mean a b =
  { heap_ns = (a.heap_ns +. b.heap_ns) /. 2.; fresh_ns = (a.fresh_ns +. b.fresh_ns) /. 2. }
