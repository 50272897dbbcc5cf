(** A software 32-bit enclave address space.

    This is the substrate that replaces the real process address space of
    the paper: byte-addressable, paged, with per-page permissions and
    guard pages. Every simulated load/store of every protection scheme
    goes through this module, exactly like compiled loads/stores go
    through the MMU.

    Addresses are plain OCaml [int]s constrained to [0, 2^addr_bits).
    [addr_bits] is 31 so that a tagged pointer (upper bound in the high
    half, address in the low half — the paper's Figure 5) fits into one
    native 63-bit OCaml integer, which is what makes the SGXBounds
    "pointer and bound update atomically" argument hold in the simulation
    too. The paper itself uses 32 of the 36 architecturally available
    bits; 31 vs 32 does not change any mechanism. *)

type t

(** Page permissions. [Guard] pages are mapped but any access faults —
    used for redzones at the top of the address space (§4.4) and for
    ASan-style poisoned regions when a scheme wants hardware-like
    trapping. *)
type perm = Read_only | Read_write | Guard

type fault_kind =
  | Unmapped       (** access to a page that was never mapped *)
  | Guard_hit      (** access to a [Guard] page *)
  | Write_to_ro    (** write to a [Read_only] page *)

(** Raised on an illegal access; the simulation's SIGSEGV. *)
exception Fault of { addr : int; kind : fault_kind }

(** Raised when a mapping would push reserved virtual memory beyond the
    configured enclave limit — the simulation's enclave OOM (this is how
    Intel MPX dies in the paper's Figure 1 and Figure 7). *)
exception Enclave_oom of { requested : int; reserved : int; limit : int }

val addr_bits : int
val addr_mask : int
val page_size : int

(** [create cfg] makes an empty address space honouring
    [cfg.enclave_mem_limit]. *)
val create : Sb_machine.Config.t -> t

(** [map t ?addr ~len ~perm] reserves [len] bytes (rounded to pages). If
    [addr] is given the mapping is fixed at that (page-aligned) address,
    otherwise a free range is chosen. Returns the start address. The
    pages read as zero; host memory for a page is only allocated on its
    first write (demand-zero), while [reserved_bytes] counts the whole
    mapping at once.
    @raise Enclave_oom if the enclave memory limit would be exceeded.
    @raise Invalid_argument on overlap with an existing mapping. *)
val map : t -> ?addr:int -> len:int -> perm:perm -> unit -> int

(** Remove a mapping previously created by [map] (whole pages).

    Contract for partially mapped ranges: [unmap] is idempotent and
    hole-tolerant, like POSIX [munmap]. Pages in [addr, addr+len) that
    are not mapped are silently skipped, and [reserved_bytes] decreases
    by [page_size] only for each page that was actually mapped — so
    unmapping a range twice, or a range with holes, never double-frees
    the reservation. A later [map ~addr] into the freed hole re-reserves
    exactly what was released. *)
val unmap : t -> addr:int -> len:int -> unit

(** Change permissions of already-mapped pages. *)
val protect : t -> addr:int -> len:int -> perm:perm -> unit

(** Tear the address space down and recycle its dense page array through
    a shared pool, so the next [create] skips the multi-megabyte
    zero-fill. The [t] must not be used afterwards (any access raises).
    Idempotent. Intended for workloads that churn through many
    short-lived machines, e.g. the fuzz replayer. *)
val retire : t -> unit

val is_mapped : t -> int -> bool

(** [load t ~addr ~width] reads an unsigned little-endian value of
    [width] bytes (1, 2, 4 or 8). Width-8 loads return the low 62 bits —
    all values stored by the simulator fit. @raise Fault on bad access. *)
val load : t -> addr:int -> width:int -> int

(** [store t ~addr ~width v] writes the low [width] bytes of [v]
    little-endian. @raise Fault on bad access. *)
val store : t -> addr:int -> width:int -> int -> unit

(** Bulk copy of [len] bytes inside the address space (handles overlap
    like [memmove]). Faults like individual accesses would. *)
val blit : t -> src:int -> dst:int -> len:int -> unit

(** Copy an OCaml string into simulated memory. *)
val write_string : t -> addr:int -> string -> unit

(** Read [len] bytes of simulated memory into an OCaml string. *)
val read_string : t -> addr:int -> len:int -> string

(** Set [len] bytes to [byte]. *)
val fill : t -> addr:int -> len:int -> byte:int -> unit

(** Bytes currently reserved (mapped), i.e. the "virtual memory
    consumption" that the paper's memory plots report. *)
val reserved_bytes : t -> int

(** High-water mark of [reserved_bytes] over the life of the space. *)
val peak_reserved_bytes : t -> int

(** Remaining headroom before [Enclave_oom]. *)
val headroom : t -> int
