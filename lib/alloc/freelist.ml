module Memsys = Sb_sgx.Memsys
module Util = Sb_machine.Util

let header_size = 16
let min_segment = 64 * 1024

(* Size classes: multiples of 16 up to 512 bytes, then 256-byte
   granularity, then page granularity for large chunks (as dlmalloc's
   mmap path does). Exact-fit reuse within a class keeps footprints
   tight under churn, and large allocations waste at most one page — so
   a 4-byte footer never doubles an allocation. *)
let class_size size =
  if size <= 512 then Util.align_up (max size 16) 16
  else if size <= 65536 then Util.align_up size 256
  else Util.align_up size 4096

(* Live-chunk table: one row per heap page, one slot per 16-byte payload
   position in that page (payloads are 16-byte aligned), holding the
   chunk's size class, or 0 when no live chunk starts there (a class is
   never 0). Pages that never held a payload share [no_row], which is
   never written; the page index grows to cover the highest page seen. *)
let slots_per_page = Sb_vmem.Vmem.page_size / 16
let no_row : int array = Array.make slots_per_page 0

type t = {
  ms : Memsys.t;
  mutable live : int array array;       (* page -> row *)
  mutable live_chunks : int;
  freelists : (int, int list ref) Hashtbl.t;  (* class size -> payload addrs *)
  mutable seg_cur : int;                (* bump pointer in current segment *)
  mutable seg_end : int;
  mutable live_bytes : int;
  mutable total_allocated : int;
}

let create ms =
  {
    ms;
    live = [||];
    live_chunks = 0;
    freelists = Hashtbl.create 64;
    seg_cur = 0;
    seg_end = 0;
    live_bytes = 0;
    total_allocated = 0;
  }

let freelist t cls =
  match Hashtbl.find_opt t.freelists cls with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.freelists cls l;
    l

(* Size class of the live chunk whose payload is at [addr], or 0. Wild,
   misaligned and out-of-range addresses all land on 0. *)
let live_class t addr =
  let page = addr lsr 12 in
  if addr < 0 || addr land 15 <> 0 || page >= Array.length t.live then 0
  else Array.unsafe_get (Array.unsafe_get t.live page) ((addr land 4095) lsr 4)

let set_class t addr cls =
  let page = addr lsr 12 in
  let n = Array.length t.live in
  if page >= n then begin
    let live = Array.make (max (page + 1) (2 * n)) no_row in
    Array.blit t.live 0 live 0 n;
    t.live <- live
  end;
  let row =
    let r = t.live.(page) in
    if r != no_row then r
    else begin
      let r = Array.make slots_per_page 0 in
      t.live.(page) <- r;
      r
    end
  in
  row.((addr land 4095) lsr 4) <- cls

let grow t need =
  let len = max min_segment (Util.align_up (need + header_size) Sb_vmem.Vmem.page_size) in
  let addr = Sb_vmem.Vmem.map (Memsys.vmem t.ms) ~len ~perm:Sb_vmem.Vmem.Read_write () in
  (* A fresh segment may not be contiguous with the previous one; the
     leftover tail of the old segment is abandoned (real mallocs keep it
     on a free list; the waste is bounded by one class size). *)
  t.seg_cur <- addr;
  t.seg_end <- addr + len

let alloc t size =
  if size <= 0 then invalid_arg "Freelist.alloc: size <= 0";
  let cls = class_size size in
  Memsys.charge_alu t.ms 40;
  let payload =
    let fl = freelist t cls in
    match !fl with
    | addr :: rest ->
      fl := rest;
      addr
    | [] ->
      let need = header_size + cls in
      if t.seg_cur + need > t.seg_end then grow t need;
      let hdr = t.seg_cur in
      t.seg_cur <- t.seg_cur + need;
      hdr + header_size
  in
  (* Write the chunk header (size word) for cache realism. *)
  Memsys.store t.ms ~addr:(payload - header_size) ~width:8 cls;
  set_class t payload cls;
  t.live_chunks <- t.live_chunks + 1;
  t.live_bytes <- t.live_bytes + cls;
  t.total_allocated <- t.total_allocated + cls;
  payload

let chunk_size t addr =
  match live_class t addr with
  | 0 -> invalid_arg "Freelist.chunk_size: not a live chunk"
  | cls -> cls

let free t addr =
  match live_class t addr with
  | 0 -> invalid_arg "Freelist.free: not a live chunk"
  | cls ->
    Memsys.charge_alu t.ms 25;
    Memsys.touch t.ms ~addr:(addr - header_size) ~width:8;
    set_class t addr 0;
    t.live_chunks <- t.live_chunks - 1;
    t.live_bytes <- t.live_bytes - cls;
    let fl = freelist t cls in
    fl := addr :: !fl

let is_live t addr = live_class t addr <> 0
let live_bytes t = t.live_bytes
let live_chunks t = t.live_chunks
let total_allocated t = t.total_allocated
