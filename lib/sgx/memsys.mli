(** The memory system: every simulated access pays its way here.

    Combines the virtual address space ({!Sb_vmem.Vmem}), the cache
    hierarchy ({!Sb_cache.Hierarchy}) and — when running inside an
    enclave — the EPC paging model ({!Epc}). Protection schemes issue
    loads/stores through this module so that both their *data* accesses
    and their *metadata* accesses (shadow memory, bounds tables, lower
    bounds) have first-class cache and paging behaviour, which is the
    mechanism behind all of the paper's performance results.

    Cycle accounting is per-thread (see {!Sb_mt}); elapsed time of a
    parallel region is the max over its threads.

    {b Attribution.} Every access carries an {!access_class}; the memory
    system keeps per-class access and cycle counters so runs can be
    explained, not just totalled: how much of the overhead is metadata
    traffic vs. bounds arithmetic vs. EPC paging (the paper's Figures 2,
    9, 10). In a single-threaded run the class cycles plus
    [compute_cycles] re-add exactly to [snapshot.cycles]; across a
    parallel region elapsed time is the max over threads while the
    attribution keeps per-thread charges, so the sum then bounds the
    elapsed time from above. *)

type t

(** What an access is *for* — the taxonomy of the overhead-attribution
    tables. [Data] is application traffic; the rest is instrumentation
    metadata: SGXBounds' lower-bound footers and metadata-plugin slots
    ([Footer_meta]), ASan's shadow bytes ([Shadow]), MPX bounds
    directory/tables and Baggy's size table ([Bounds_table]), ASan's
    delayed-reuse bookkeeping ([Quarantine]) and boundless-memory
    overlay traffic ([Overlay], §4.2). *)
type access_class =
  | Data
  | Footer_meta
  | Shadow
  | Bounds_table
  | Quarantine
  | Overlay

val all_classes : access_class list
val class_name : access_class -> string

type class_stat = {
  accesses : int;  (** memory operations charged to the class *)
  cycles : int;    (** cycles charged to the class (incl. classed ALU work) *)
}

type snapshot = {
  cycles : int;        (** elapsed cycles (max over thread clocks) *)
  instrs : int;        (** retired ALU instructions charged *)
  mem_accesses : int;  (** memory operations issued *)
  llc_misses : int;
  epc_faults : int;
}

(** [create ?tel cfg] — [tel] defaults to a disabled hub
    ({!Sb_telemetry.Telemetry.disabled}): counters in this module are
    always maintained (plain array increments), but histograms and the
    event ring only record when [tel] is enabled. The hub's clock is
    pointed at the current simulated thread's cycle counter, and EPC
    fault/eviction events are wired into its event ring. *)
val create : ?tel:Sb_telemetry.Telemetry.t -> Sb_machine.Config.t -> t

val cfg : t -> Sb_machine.Config.t
val vmem : t -> Sb_vmem.Vmem.t
val telemetry : t -> Sb_telemetry.Telemetry.t

(** {2 Costed data accesses}

    [cls] defaults to [Data]; schemes pass the class of their metadata
    traffic. *)

val load : ?cls:access_class -> t -> addr:int -> width:int -> int
val store : ?cls:access_class -> t -> addr:int -> width:int -> int -> unit

(** Charge the cost of an access without transferring data (used for
    metadata whose value the simulator keeps elsewhere). *)
val touch : ?cls:access_class -> t -> addr:int -> width:int -> unit

(** Touch every cache line in [addr, addr+len). *)
val touch_range : ?cls:access_class -> t -> addr:int -> len:int -> unit

(** Costed memmove inside simulated memory. *)
val blit : ?cls:access_class -> t -> src:int -> dst:int -> len:int -> unit

(** Costed memset. *)
val fill : ?cls:access_class -> t -> addr:int -> len:int -> byte:int -> unit

(** Charge [n] simple ALU instructions to the current thread. With
    [cls], the cycles are attributed to that access class (e.g. the
    boundless overlay's lock + hash slow path) instead of the default
    compute bucket. *)
val charge_alu : ?cls:access_class -> t -> int -> unit

(** {2 Thread clocks} *)

(** Make [tid] the thread that later charges go to. Raises
    [Invalid_argument] unless [0 <= tid < Config.max_threads]. *)
val set_thread : t -> int -> unit
val current_thread : t -> int
val get_clock : t -> int -> int
val set_clock : t -> int -> int -> unit

(** {2 Statistics} *)

val snapshot : t -> snapshot

(** Per-class access/cycle counters, in [all_classes] order. *)
val attribution : t -> (access_class * class_stat) list

(** Cycles charged by unclassed [charge_alu] — application and
    instrumentation arithmetic. *)
val compute_cycles : t -> int

(** Total cycles charged to any bucket: class cycles + compute. Equal to
    [snapshot.cycles] for single-threaded runs. *)
val attributed_cycles : t -> int

(** [thread_cycles ms tid] — the cycles simulated thread [tid] has
    charged to each bucket since the last {!reset}, indexed like
    {!profile_buckets} (a fresh copy, pending same-line batch included).
    Summed over threads, the rows give {!attribution}'s class cycles and
    {!compute_cycles}. Request spans take the difference of a worker's
    row across its execution window. *)
val thread_cycles : t -> int -> int array

(** Per-level cache hit/miss counters ([("L1", _); ("L2", _); ("LLC", _)]). *)
val cache_stats : t -> (string * Sb_cache.Hierarchy.level_stats) list

(** Always [{ fused = 0 }]: no engine fuses accesses. Kept only as
    the source of the benchmark harness's [trace.fused_ratio]. *)
val trace_stats : t -> Sb_machine.Trace.stats

(** Reset clocks, stats, attribution, telemetry (counters, histograms,
    event ring), cache contents, EPC residency and the cooperative
    yield phase — a fresh run on the same address space contents, which
    interleaves threads exactly as a newly created machine would. *)
val reset : t -> unit

val epc_faults : t -> int
val epc_evictions : t -> int
val llc_misses : t -> int

(** {2 Site-attributed profiling}

    A {!Sb_telemetry.Profile.t} attached to the machine receives every
    charge as (bucket, cost) where bucket indexes {!profile_buckets} —
    the access classes in [all_classes] order, then ["compute"] for
    unclassed ALU work. Attaching disables the fast engine's same-line
    batching (stats-invariant — simulated metrics are bit-identical) so
    charges land at the site where they happen; detaching restores it.
    The profiler is the only per-charge observer and the only thing that
    turns batching off: telemetry histograms take a batch in one bulk
    observation, and request spans read {!thread_cycles}. Detached cost
    is one predicted branch per charge. *)

(** Bucket labels a profiler for this machine must be created with:
    class names in [all_classes] order, then ["compute"]. *)
val profile_buckets : string array

(** Point the machine's charge stream and the profiler's thread-id
    closure at each other. Raises [Invalid_argument] if the profiler's
    bucket count does not match {!profile_buckets}. *)
val attach_profiler : t -> Sb_telemetry.Profile.t -> unit

val detach_profiler : t -> unit

(** Tear the machine down and recycle its big flat arrays (Vmem page
    array, EPC residency table) through shared pools, making the next
    [create] cheap. The machine must not be used afterwards. Read any
    stats ([snapshot], [cache_stats], ...) {e before} retiring. *)
val retire : t -> unit
