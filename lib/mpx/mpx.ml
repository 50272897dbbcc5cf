(** Intel MPX model (§2.2, Figure 3b/4c), as moved inside SGX enclaves in
    §5.2 of the paper:

    - per-pointer bounds live in registers next to the pointer value
      ([ptr.bnd]) — bndmk at creation, bndcl/bndcu before accesses;
    - a pointer stored to memory spills its bounds with bndstx and loads
      them back with bndldx, through a two-level structure: Bounds
      Directory (32 KiB in the 32-bit adaptation) → on-demand 4 MiB
      Bounds Tables. Both levels are *real* simulated memory, so bounds
      traffic pollutes caches and thrashes the EPC, and BT allocation
      consumes enclave memory until the application dies of OOM — the
      paper's Figure 1/7 MPX crashes;
    - bndldx compares the recorded pointer value with the loaded one; on
      mismatch it returns "infinite" bounds (the architecture's
      compatibility behaviour). Without atomicity between the data store
      and bndstx this is the §4.1 multithreading desync;
    - narrowing of bounds is disabled (as in the paper's evaluation), so
      intra-object overflows pass;
    - libc wrappers are weak (GCC's MPX runtime): buffers handed to
      memcpy/strcpy are not checked — the reason MPX stops only 2 of 16
      RIPE attacks. *)

module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Base = Sb_protection.Base
open Sb_protection.Types

let bd_index_bits = 14
let bt_region_shift = Vmem.addr_bits - bd_index_bits  (* app bytes covered per BT *)

type bt_state = {
  ms : Memsys.t;
  bd_base : int;
  bts : int array;                      (* BD index -> BT base address, -1 = none *)
  bt_bytes : int;
  (* Semantic store: exact bounds keyed by the pointer's storage location.
     The *traffic* for these entries goes through BD/BT simulated memory. *)
  entries : (int, int * bound) Hashtbl.t; (* location -> (ptr value, bounds) *)
  extras : extras;
}

let bd_index addr = addr lsr bt_region_shift

(* Scaled BT entry address: traffic lands inside the BT proportionally to
   the location's offset in the covered region, preserving locality. *)
let bt_entry_addr st bt_base addr =
  let off = addr land ((1 lsl bt_region_shift) - 1) in
  let idx = off lsr 3 in
  bt_base + (idx * 16) mod st.bt_bytes

let get_bt st addr =
  let i = bd_index addr in
  (* BD entry load. *)
  Memsys.touch ~cls:Memsys.Bounds_table st.ms ~addr:(st.bd_base + (i * 8)) ~width:8;
  match st.bts.(i) with
  | -1 ->
    (* On-demand BT allocation: in the paper's SGX adaptation the #BR
       exception is forwarded into the enclave, which allocates the table
       itself. Costed as an exception round-trip. *)
    let b =
      try Vmem.map (Memsys.vmem st.ms) ~len:st.bt_bytes ~perm:Vmem.Read_write ()
      with Vmem.Enclave_oom _ ->
        raise (App_crash "MPX: out of enclave memory while allocating a bounds table")
    in
    Memsys.charge_alu ~cls:Memsys.Bounds_table st.ms 3000;
    Memsys.store ~cls:Memsys.Bounds_table st.ms ~addr:(st.bd_base + (i * 8)) ~width:8 b;
    st.bts.(i) <- b;
    st.extras.bts_allocated <- st.extras.bts_allocated + 1;
    b
  | b -> b

let bndstx st ~loc ~value ~bnd =
  let bt = get_bt st loc in
  Memsys.touch ~cls:Memsys.Bounds_table st.ms ~addr:(bt_entry_addr st bt loc) ~width:16;
  Memsys.charge_alu ~cls:Memsys.Bounds_table st.ms 30; (* microcoded translate, spills, entry write *)
  match bnd with
  | Some b -> Hashtbl.replace st.entries loc (value, b)
  | None -> Hashtbl.remove st.entries loc

let bndldx st ~loc ~value =
  let bt = get_bt st loc in
  Memsys.touch ~cls:Memsys.Bounds_table st.ms ~addr:(bt_entry_addr st bt loc) ~width:16;
  Memsys.charge_alu ~cls:Memsys.Bounds_table st.ms 30; (* microcoded translate, spills, entry read + compare *)
  match Hashtbl.find_opt st.entries loc with
  | Some (recorded, b) when recorded = value -> Some b
  | Some _ | None -> None (* pointer modified behind MPX's back: INIT bounds *)

let make ms : Scheme.t =
  let base = Base.create ms in
  let heap = base.Base.heap in
  let extras = fresh_extras () in
  let bd_len =
    Sb_machine.Util.align_up ((1 lsl bd_index_bits) * 8) Vmem.page_size
  in
  let bd_base = Vmem.map (Memsys.vmem ms) ~len:bd_len ~perm:Vmem.Read_write () in
  let st =
    {
      ms;
      bd_base;
      bts = Array.make (1 lsl bd_index_bits) (-1);
      (* Architectural ratio: a 16-byte BT entry per 4-byte pointer slot
         means a full BT is 4x the address range it covers (the paper's
         32 KiB BD + 4 MiB BTs for a 32-bit space). One pointer store in
         a region still reserves the whole table. *)
      bt_bytes = 4 * (1 lsl bt_region_shift);
      entries = Hashtbl.create 4096;
      extras;
    }
  in

  (* bndcl + bndcu. A pointer without register bounds is unchecked (MPX
     compatibility with uninstrumented pointers). *)
  let check p width access =
    match p.bnd with
    | None -> ()
    | Some b ->
      extras.checks_done <- extras.checks_done + 1;
      Memsys.charge_alu ms 2;
      if p.v < b.lo || p.v + width > b.hi then
        raise
          (Violation
             { scheme = "mpx"; addr = p.v; access; width; lo = b.lo; hi = b.hi;
               reason = "bndcl/bndcu failed" })
  in
  let with_bounds addr size =
    Memsys.charge_alu ms 2; (* bndmk *)
    { v = addr; bnd = Some { lo = addr; hi = addr + size } }
  in
  let malloc size = with_bounds (Sb_alloc.Freelist.alloc heap size) size in
  let free p =
    if Sb_alloc.Freelist.is_live heap p.v then Sb_alloc.Freelist.free heap p.v
  in
  let calloc n size =
    let p = malloc (n * size) in
    Memsys.fill ms ~addr:p.v ~len:(n * size) ~byte:0;
    p
  in
  let realloc p size =
    if p.v = 0 then malloc size
    else begin
      let old_size = Sb_alloc.Freelist.chunk_size heap p.v in
      let q = malloc size in
      Memsys.blit ms ~src:p.v ~dst:q.v ~len:(min old_size size);
      free p;
      q
    end
  in
  let load p width =
    check p width Read;
    Memsys.load ms ~addr:p.v ~width
  in
  let store p width v =
    check p width Write;
    Memsys.store ms ~addr:p.v ~width v
  in
  {
    Scheme.name = "mpx";
    ms;
    extras;
    malloc;
    calloc;
    realloc;
    free;
    global = (fun size -> with_bounds (Sb_alloc.Bump.alloc base.Base.globals size) size);
    stack_push = (fun () -> Sb_alloc.Stackmem.push_frame (Base.stack base));
    stack_alloc =
      (fun size -> with_bounds (Sb_alloc.Stackmem.alloc (Base.stack base) size) size);
    stack_pop = (fun tok -> Sb_alloc.Stackmem.pop_frame (Base.stack base) tok);
    offset =
      (fun p delta ->
         Memsys.charge_alu ms 1;
         { p with v = p.v + delta });
    addr_of = (fun p -> p.v);
    load;
    store;
    (* GCC's MPX pass performs little provable-safety elision; checks
       stay (one reason instruction counts blow up, §6.2). *)
    safe_load = load;
    safe_store = store;
    check_range = (fun _ _ _ -> ());
    load_unchecked = load;
    store_unchecked = store;
    load_ptr =
      (fun p ->
         check p 8 Read;
         let v = Memsys.load ms ~addr:p.v ~width:8 in
         let bnd = bndldx st ~loc:p.v ~value:v in
         { v; bnd });
    store_ptr =
      (fun p q ->
         check p 8 Write;
         Memsys.store ms ~addr:p.v ~width:8 q.v;
         (* NOT atomic with the data store: the scheduler may interleave
            another thread here (§4.1). *)
         bndstx st ~loc:p.v ~value:q.v ~bnd:q.bnd);
    load_ptr_unchecked =
      (fun p ->
         (* even in a provably-safe loop the bounds themselves must be
            materialized: bndldx cannot be elided *)
         let v = Memsys.load ms ~addr:p.v ~width:8 in
         let bnd = bndldx st ~loc:p.v ~value:v in
         { v; bnd });
    store_ptr_unchecked =
      (fun p q ->
         Memsys.store ms ~addr:p.v ~width:8 q.v;
         bndstx st ~loc:p.v ~value:q.v ~bnd:q.bnd);
    libc_check = (fun _ _ _ -> ());
    libc_touch = Scheme.no_touch;
  }
