let addr_bits = 31
let addr_mask = (1 lsl addr_bits) - 1
let page_size = 4096
let page_shift = 12
let num_pages = 1 lsl (addr_bits - page_shift)

type perm = Read_only | Read_write | Guard

type fault_kind = Unmapped | Guard_hit | Write_to_ro

exception Fault of { addr : int; kind : fault_kind }
exception Enclave_oom of { requested : int; reserved : int; limit : int }

type page = { mutable data : Bytes.t; mutable perm : perm }  (* [data]: see [zero_page] *)

(* Demand-zero backing: every freshly mapped page reads this one shared
   buffer until it is first written, so mapping a large arena costs one
   small record per page instead of a zero-filled 4 KiB each. Nothing
   ever writes it: every write path translates through [get_page_wr],
   whose slow path gives the page its own bytes before the write memo
   can hold it. *)
let zero_page = Bytes.make page_size '\000'

(* The shared sentinel stands for "unmapped" in the dense page array:
   every access path discriminates on [perm] first, so giving it [Guard]
   folds the unmapped test into the same branch that guard pages already
   pay — the common (mapped) case does no option match and no extra
   compare. Identified by physical equality; its perm is never mutated
   and its data never touched, so sharing one across all address spaces
   (and domains) is safe. *)
let sentinel = { data = zero_page; perm = Guard }

type t = {
  mutable pages : page array;  (* dense; [sentinel] = unmapped; [||] = retired *)
  limit : int;
  mutable reserved : int;
  mutable peak : int;
  (* Next-fit cursor for address-space placement of anonymous mappings.
     Page index, never reset below its start so address reuse after unmap
     only happens via explicit [addr]. We start at page 16 to keep a null
     guard zone, mirroring the paper's vm.mmap_min_addr = 0 setup where
     the enclave starts at 0 but page 0 is still never handed out. *)
  mutable cursor : int;
  (* Fast engine: last-page translation memos, split read/write so a
     read streak and a write streak each stay memoized. [rd_idx]/[wr_idx]
     hold the page index of the memoized page or -1; invalidated by
     unmap/protect. Only ever hold mapped pages with a permission that
     allows the memoized direction, so a memo hit can skip the range
     check, the array load and the permission match. *)
  mutable rd_idx : int;
  mutable rd_page : page;
  mutable wr_idx : int;
  mutable wr_page : page;
  (* Every successful [map] records its (page0, npages) range here so
     [retire] can restore just those entries to the sentinel instead of
     refilling the whole dense array. Entries are never removed by
     [unmap]; re-sentineling an already-unmapped page is harmless. *)
  mutable mapped_ranges : (int * int) list;
  fast : bool;
}

(* Retired page arrays, all-sentinel by construction (see [retire]),
   shared across address spaces and domains. *)
let pages_pool : page array Sb_machine.Pool.t = Sb_machine.Pool.create ~max:8 ()

let create (cfg : Sb_machine.Config.t) =
  {
    pages =
      Sb_machine.Pool.get pages_pool
        ~validate:(fun a -> Array.length a = num_pages)
        (fun () -> Array.make num_pages sentinel);
    limit = cfg.enclave_mem_limit;
    reserved = 0;
    peak = 0;
    cursor = 16;
    rd_idx = -1;
    rd_page = sentinel;
    wr_idx = -1;
    wr_page = sentinel;
    mapped_ranges = [];
    fast = Sb_machine.Fastpath.is_enabled ();
  }

let reserved_bytes t = t.reserved
let peak_reserved_bytes t = t.peak
let headroom t = t.limit - t.reserved

let invalidate_memos t =
  t.rd_idx <- -1;
  t.rd_page <- sentinel;
  t.wr_idx <- -1;
  t.wr_page <- sentinel

let is_mapped t addr =
  addr >= 0 && addr <= addr_mask && t.pages.(addr lsr page_shift) != sentinel

let fault addr kind = raise (Fault { addr; kind })

let pages_of_len len = (len + page_size - 1) lsr page_shift

let range_free t page0 npages =
  let rec go i = i >= npages || (t.pages.(page0 + i) == sentinel && go (i + 1)) in
  page0 + npages <= num_pages && go 0

let find_gap t npages =
  (* Next-fit from the cursor, wrapping once past the top. [tries]
     counts candidate start positions examined — one per step — so the
     scan provably visits every feasible start before giving up. (An
     earlier version advanced [tries] by [npages] per step, which
     overcounted and raised Enclave_oom while free gaps remained behind
     a long mapped run.) *)
  let rec scan start tries =
    if tries > num_pages then
      raise
        (Enclave_oom { requested = npages * page_size; reserved = t.reserved; limit = t.limit })
    else if start + npages > num_pages then scan 16 (tries + 1)
    else if range_free t start npages then start
    else scan (start + 1) (tries + 1)
  in
  scan t.cursor 0

let map t ?addr ~len ~perm () =
  if len <= 0 then invalid_arg "Vmem.map: len <= 0";
  let npages = pages_of_len len in
  let bytes = npages * page_size in
  if t.reserved + bytes > t.limit then
    raise (Enclave_oom { requested = bytes; reserved = t.reserved; limit = t.limit });
  let page0 =
    match addr with
    | None ->
      let p = find_gap t npages in
      t.cursor <- p + npages;
      p
    | Some a ->
      if a land (page_size - 1) <> 0 then invalid_arg "Vmem.map: addr not page-aligned";
      let p = a lsr page_shift in
      if not (range_free t p npages) then invalid_arg "Vmem.map: overlap";
      p
  in
  for i = page0 to page0 + npages - 1 do
    t.pages.(i) <- { data = zero_page; perm }
  done;
  t.mapped_ranges <- (page0, npages) :: t.mapped_ranges;
  t.reserved <- t.reserved + bytes;
  if t.reserved > t.peak then t.peak <- t.reserved;
  page0 lsl page_shift

let unmap t ~addr ~len =
  let page0 = addr lsr page_shift and npages = pages_of_len len in
  for i = page0 to page0 + npages - 1 do
    if t.pages.(i) != sentinel then begin
      t.pages.(i) <- sentinel;
      t.reserved <- t.reserved - page_size
    end
  done;
  invalidate_memos t

let protect t ~addr ~len ~perm =
  let page0 = addr lsr page_shift and npages = pages_of_len len in
  invalidate_memos t;
  for i = page0 to page0 + npages - 1 do
    let p = t.pages.(i) in
    if p == sentinel then fault (i lsl page_shift) Unmapped else p.perm <- perm
  done

let retire t =
  if Array.length t.pages > 0 then begin
    List.iter
      (fun (page0, npages) -> Array.fill t.pages page0 npages sentinel)
      t.mapped_ranges;
    let pages = t.pages in
    t.pages <- [||];
    t.mapped_ranges <- [];
    t.reserved <- 0;
    invalidate_memos t;
    Sb_machine.Pool.put pages_pool pages
  end

(* Translation. The memo compare alone is a complete safety check: a
   memoized index is always a valid mapped page index, and any [addr]
   outside [0, addr_mask] yields an index (logical shift) that no memo
   can hold, falling through to the checked path. *)

let get_page_rd_slow t addr =
  if addr < 0 || addr > addr_mask then fault addr Unmapped;
  let idx = addr lsr page_shift in
  let p = Array.unsafe_get t.pages idx in
  match p.perm with
  | Guard -> if p == sentinel then fault addr Unmapped else fault addr Guard_hit
  | Read_only | Read_write ->
    if t.fast then begin
      t.rd_idx <- idx;
      t.rd_page <- p
    end;
    p

let get_page_rd t addr =
  let idx = addr lsr page_shift in
  if idx = t.rd_idx then t.rd_page else get_page_rd_slow t addr

let get_page_wr_slow t addr =
  if addr < 0 || addr > addr_mask then fault addr Unmapped;
  let idx = addr lsr page_shift in
  let p = Array.unsafe_get t.pages idx in
  match p.perm with
  | Read_write ->
    if p.data == zero_page then p.data <- Bytes.make page_size '\000';
    if t.fast then begin
      t.wr_idx <- idx;
      t.wr_page <- p
    end;
    p
  | Guard -> if p == sentinel then fault addr Unmapped else fault addr Guard_hit
  | Read_only -> fault addr Write_to_ro

let get_page_wr t addr =
  let idx = addr lsr page_shift in
  if idx = t.wr_idx then t.wr_page else get_page_wr_slow t addr

let off addr = addr land (page_size - 1)

(* Unsafe 16-bit native-order accessors for the fast codec below: the
   enclosing [o + width <= page_size] test has already proven the span
   in-bounds of the page's [page_size] backing bytes, so the runtime
   bounds checks of [Bytes.get_uint16_le] are pure overhead. Byte order
   is normalized to little-endian like the checked accessors. *)
external get_16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set_16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let swap16 v = ((v land 0xff) lsl 8) lor (v lsr 8)
let[@inline always] get16le b o = if Sys.big_endian then swap16 (get_16u b o) else get_16u b o
let[@inline always] set16le b o v = set_16u b o (if Sys.big_endian then swap16 v else v)

(* Slow byte-at-a-time paths for accesses that straddle a page. *)
let load_bytes_slow t addr width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    let a = addr + i in
    let p = get_page_rd t a in
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get p.data (off a))
  done;
  !v

let store_bytes_slow t addr width v =
  for i = 0 to width - 1 do
    let a = addr + i in
    let p = get_page_wr t a in
    Bytes.unsafe_set p.data (off a) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let load t ~addr ~width =
  let o = off addr in
  if o + width <= page_size then begin
    let p = get_page_rd t addr in
    if t.fast then
      (* Unboxed codec: compose wide loads from uint16 reads instead of
         the boxing Int32/Int64 primitives — value-identical (width 8
         keeps the low 62 bits, as Int64.to_int land max_int did). *)
      match width with
      | 1 -> Bytes.unsafe_get p.data o |> Char.code
      | 2 -> get16le p.data o
      | 4 -> get16le p.data o lor (get16le p.data (o + 2) lsl 16)
      | 8 ->
        (get16le p.data o
         lor (get16le p.data (o + 2) lsl 16)
         lor (get16le p.data (o + 4) lsl 32)
         lor (get16le p.data (o + 6) lsl 48))
        land max_int
      | _ -> invalid_arg "Vmem.load: width"
    else
      match width with
      | 1 -> Bytes.get_uint8 p.data o
      | 2 -> Bytes.get_uint16_le p.data o
      | 4 -> Int32.to_int (Bytes.get_int32_le p.data o) land 0xFFFFFFFF
      | 8 -> Int64.to_int (Bytes.get_int64_le p.data o) land max_int
      | _ -> invalid_arg "Vmem.load: width"
  end
  else load_bytes_slow t addr width

let store t ~addr ~width v =
  let o = off addr in
  if o + width <= page_size then begin
    let p = get_page_wr t addr in
    if t.fast then
      (* Unboxed codec; the top chunk of width 8 uses [asr] so the sign
         bit replicates into bit 63 exactly like Int64.of_int did. *)
      match width with
      | 1 -> Bytes.unsafe_set p.data o (Char.unsafe_chr (v land 0xff))
      | 2 -> set16le p.data o (v land 0xffff)
      | 4 ->
        set16le p.data o (v land 0xffff);
        set16le p.data (o + 2) ((v lsr 16) land 0xffff)
      | 8 ->
        set16le p.data o (v land 0xffff);
        set16le p.data (o + 2) ((v lsr 16) land 0xffff);
        set16le p.data (o + 4) ((v lsr 32) land 0xffff);
        set16le p.data (o + 6) ((v asr 48) land 0xffff)
      | _ -> invalid_arg "Vmem.store: width"
    else
      match width with
      | 1 -> Bytes.set_uint8 p.data o (v land 0xff)
      | 2 -> Bytes.set_uint16_le p.data o (v land 0xffff)
      | 4 -> Bytes.set_int32_le p.data o (Int32.of_int v)
      | 8 -> Bytes.set_int64_le p.data o (Int64.of_int v)
      | _ -> invalid_arg "Vmem.store: width"
  end
  else store_bytes_slow t addr width v

let blit t ~src ~dst ~len =
  if len > 0 then begin
    (* Copy via a temporary buffer: simple and overlap-safe; [len] is
       bounded by object sizes which are small in the scaled simulation. *)
    let buf = Bytes.create len in
    let i = ref 0 in
    while !i < len do
      let a = src + !i in
      let p = get_page_rd t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit p.data (off a) buf !i chunk;
      i := !i + chunk
    done;
    let i = ref 0 in
    while !i < len do
      let a = dst + !i in
      let p = get_page_wr t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit buf !i p.data (off a) chunk;
      i := !i + chunk
    done
  end

let write_string_slow t ~addr s =
  String.iteri (fun i c -> store t ~addr:(addr + i) ~width:1 (Char.code c)) s

let write_string t ~addr s =
  if t.fast then begin
    (* Page-chunked: one translation + one blit per page instead of one
       per byte. *)
    let len = String.length s in
    let i = ref 0 in
    while !i < len do
      let a = addr + !i in
      let p = get_page_wr t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit_string s !i p.data (off a) chunk;
      i := !i + chunk
    done
  end
  else write_string_slow t ~addr s

let read_string_slow t ~addr ~len =
  String.init len (fun i -> Char.chr (load t ~addr:(addr + i) ~width:1))

let read_string t ~addr ~len =
  if t.fast then begin
    let buf = Bytes.create len in
    let i = ref 0 in
    while !i < len do
      let a = addr + !i in
      let p = get_page_rd t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit p.data (off a) buf !i chunk;
      i := !i + chunk
    done;
    Bytes.unsafe_to_string buf
  end
  else read_string_slow t ~addr ~len

let fill t ~addr ~len ~byte =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = get_page_wr t a in
    let chunk = min (len - !i) (page_size - off a) in
    Bytes.fill p.data (off a) chunk (Char.chr (byte land 0xff));
    i := !i + chunk
  done
