type event =
  | Fault of { page : int }              (** page loaded + decrypted into the EPC *)
  | Evict of { page : int; slot : int }  (** victim re-encrypted and written back *)

type t = {
  capacity : int;
  slots : int array;            (* page number per slot, -1 = free *)
  refbit : Bytes.t;
  (* Residency (page -> slot) lives in exactly one of two places.
     [page_table] is the fast engine's direct-mapped table covering the
     simulated address space (-1 = not resident): the probe on every
     DRAM access is one array read. [index] holds every page the table
     does not cover: garbage pages outside the address space (they
     reach the EPC before Vmem faults them), and every page under the
     naive engine, whose table has length 0 — as it also has when the
     address-space size was not supplied, or after [retire]. *)
  index : (int, int) Hashtbl.t;
  mutable page_table : int array;
  mutable hand : int;
  mutable used : int;
  mutable faults : int;
  mutable evictions : int;
  mutable tracer : (event -> unit) option;
  (* Fast engine: last-page residency memo. Valid whenever it matches:
     the memo is overwritten by every touch, so a matching page was the
     immediately preceding access and is necessarily still resident in
     [last_slot] — no eviction can have intervened. Skips the hashtable
     lookup for same-page streaks. -1 = no memo (naive engine); a
     negative page never takes the memo, so a touch of page -1 cannot
     match the empty memo. *)
  mutable last_page : int;
  mutable last_slot : int;
  fast : bool;
}

(* Retired direct-mapped residency tables, all -1 by construction (see
   [retire]), shared across instances and domains. *)
let table_pool : int array Sb_machine.Pool.t = Sb_machine.Pool.create ~max:8 ()

let create ?(num_pages = 0) ~capacity_pages () =
  let capacity = max 1 capacity_pages in
  let fast = Sb_machine.Fastpath.is_enabled () in
  let direct = fast && num_pages > 0 in
  {
    capacity;
    slots = Array.make capacity (-1);
    refbit = Bytes.make capacity '\000';
    index = Hashtbl.create (if direct then 16 else capacity * 2);
    page_table =
      (if direct then
         Sb_machine.Pool.get table_pool
           ~validate:(fun a -> Array.length a = num_pages)
           (fun () -> Array.make num_pages (-1))
       else [||]);
    hand = 0;
    used = 0;
    faults = 0;
    evictions = 0;
    tracer = None;
    last_page = -1;
    last_slot = 0;
    fast;
  }

let set_tracer t tracer = t.tracer <- tracer

let emit t ev = match t.tracer with None -> () | Some f -> f ev

let in_table t page = page >= 0 && page < Array.length t.page_table

let resident_slot t page =
  if in_table t page then Array.unsafe_get t.page_table page
  else match Hashtbl.find_opt t.index page with Some s -> s | None -> -1

let set_slot t page slot =
  if in_table t page then Array.unsafe_set t.page_table page slot
  else if slot < 0 then Hashtbl.remove t.index page
  else Hashtbl.replace t.index page slot

let rec touch t ~page =
  if page = t.last_page && page >= 0 then begin
    Bytes.unsafe_set t.refbit t.last_slot '\001';
    true
  end
  else touch_slow t ~page

and touch_slow t ~page =
  let slot = resident_slot t page in
  if slot >= 0 then begin
    if t.fast then begin
      t.last_page <- page;
      t.last_slot <- slot
    end;
    Bytes.unsafe_set t.refbit slot '\001';
    true
  end
  else begin
    t.faults <- t.faults + 1;
    let slot =
      if t.used < t.capacity then begin
        let s = t.used in
        t.used <- t.used + 1;
        s
      end
      else begin
        (* CLOCK sweep: clear reference bits until an unreferenced victim
           is found; guaranteed to terminate within two laps. *)
        let rec sweep () =
          let s = t.hand in
          t.hand <- (t.hand + 1) mod t.capacity;
          if Bytes.get t.refbit s = '\001' then begin
            Bytes.set t.refbit s '\000';
            sweep ()
          end
          else s
        in
        let s = sweep () in
        t.evictions <- t.evictions + 1;
        let victim = t.slots.(s) in
        emit t (Evict { page = victim; slot = s });
        set_slot t victim (-1);
        s
      end
    in
    emit t (Fault { page });
    t.slots.(slot) <- page;
    Bytes.set t.refbit slot '\001';
    set_slot t page slot;
    if t.fast then begin
      t.last_page <- page;
      t.last_slot <- slot
    end;
    false
  end

let faults t = t.faults
let evictions t = t.evictions
let resident_pages t = t.used
let capacity_pages t = t.capacity

let reset_stats t =
  t.faults <- 0;
  t.evictions <- 0

let clear t =
  (* Un-map only the resident pages from the direct table — cheaper than
     refilling the whole address space. *)
  Array.iter (fun page -> if in_table t page then Array.unsafe_set t.page_table page (-1)) t.slots;
  Array.fill t.slots 0 t.capacity (-1);
  Bytes.fill t.refbit 0 t.capacity '\000';
  Hashtbl.reset t.index;
  t.hand <- 0;
  t.used <- 0;
  t.faults <- 0;
  t.evictions <- 0;
  t.last_page <- -1;
  t.last_slot <- 0

let retire t =
  if Array.length t.page_table > 0 then begin
    (* [clear] un-maps every resident page from the direct table, so the
       pooled array is all -1 again. *)
    clear t;
    let table = t.page_table in
    t.page_table <- [||];
    Sb_machine.Pool.put table_pool table
  end
  else clear t
