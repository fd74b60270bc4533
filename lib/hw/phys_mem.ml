exception Bus_error of int

(* Storage grain.  A page starts out as [Zero] and takes storage only
   where it is written: a write covering less than [whole_min] bytes of
   the page materializes just the 256-byte chunks it touches, and one
   covering at least [whole_min] turns the page into one 4 KiB block
   (keeping what its chunks held), so whole-page DMA stays one blit.  An
   e1000 RX page that carries two short frames then costs two chunks,
   not a page. *)
let page_shift = 12 (* log2 Bus.page_size *)
let chunk_shift = 8
let chunk_size = 1 lsl chunk_shift
let chunk_mask = chunk_size - 1
let whole_min = 1024

type page =
  | Zero                        (* never written since create or free *)
  | Chunks of bytes array       (* one slot per chunk; [Bytes.empty] reads as zeros *)
  | Whole of bytes              (* [Bus.page_size] bytes *)

(* Two-level page table: [dirs.(idx lsr dir_shift)] holds the pages of
   one 2 MiB span, made on the first write into it; [[||]] is a span
   nothing was written to. *)
let dir_shift = 9
let dir_mask = (1 lsl dir_shift) - 1

type t = {
  size : int;
  dirs : page array array;
  mutable bump : int;           (* next never-allocated page index *)
  free_runs : (int, int list) Hashtbl.t;  (* run length -> start pages *)
  mutable outstanding : int;
}

let create ~size =
  let size = Bus.page_align_up size in
  if size <= 0 then invalid_arg "Phys_mem.create: size must be positive";
  let pages = size lsr page_shift in
  (* The first 64 KiB stay unallocated, like the reserved low memory of a
     real machine — so no DMA structure ever lands at address 0, which
     device schedules use as a null link. *)
  { size;
    dirs = Array.make ((pages + dir_mask) lsr dir_shift) [||];
    bump = 16;
    free_runs = Hashtbl.create 8;
    outstanding = 0 }

let[@inline] check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    raise (Bus_error addr)

let[@inline] page t idx =
  let dir = t.dirs.(idx lsr dir_shift) in
  if Array.length dir = 0 then Zero else dir.(idx land dir_mask)

let set_page t idx pg =
  let d = idx lsr dir_shift in
  if Array.length t.dirs.(d) = 0 then t.dirs.(d) <- Array.make (dir_mask + 1) Zero;
  t.dirs.(d).(idx land dir_mask) <- pg

(* Every access goes through the bytes holding its address: a chunk, a
   whole page, or one of the shared zero blocks below where nothing was
   written.  Each is a power of two long, so the address's offset in it
   is [addr land (Bytes.length b - 1)], and the access may run to its
   end.  The zero blocks are only ever read. *)
let zero_page = Bytes.make Bus.page_size '\000'
let zero_chunk = Bytes.make chunk_size '\000'

let offset b addr = addr land (Bytes.length b - 1)

let chunk_index addr = (addr land Bus.page_mask) lsr chunk_shift

let[@inline] readable t addr =
  match page t (addr lsr page_shift) with
  | Whole p -> p
  | Zero -> zero_page
  | Chunks cs ->
    let c = cs.(chunk_index addr) in
    if Bytes.length c = 0 then zero_chunk else c

(* Chunk [addr] of a chunked page, materialized on first write. *)
let chunk cs addr =
  let i = chunk_index addr in
  if Bytes.length cs.(i) = 0 then cs.(i) <- Bytes.make chunk_size '\000';
  cs.(i)

(* Store page [idx] as one block from now on, keeping what its chunks
   [cs] held. *)
let whole t idx cs =
  let p = Bytes.make Bus.page_size '\000' in
  Array.iteri (fun i c -> Bytes.blit c 0 p (i lsl chunk_shift) (Bytes.length c)) cs;
  set_page t idx (Whole p);
  p

(* The bytes to write [addr] into, for a write covering [span] bytes of
   its page from [addr] on.  [writable] inlines the case of a page
   already whole. *)
let materialize t addr ~span =
  let idx = addr lsr page_shift in
  match page t idx with
  | Whole p -> p
  | Chunks cs -> if span < whole_min then chunk cs addr else whole t idx cs
  | Zero ->
    if span < whole_min then begin
      let cs = Array.make (Bus.page_size lsr chunk_shift) Bytes.empty in
      set_page t idx (Chunks cs);
      chunk cs addr
    end
    else whole t idx [||]

let[@inline] writable t addr ~span =
  match page t (addr lsr page_shift) with
  | Whole p -> p
  | Zero | Chunks _ -> materialize t addr ~span

(* A transfer walks memory one chunk or page at a time, so one that lies
   in a single chunk or page is one blit.  Every access pays for the
   range check and the lookups above, which is why they are inlined. *)
let blit_out t ~addr ~dst ~dst_off ~len =
  check t addr len;
  let pos = ref addr and off = ref dst_off and left = ref len in
  while !left > 0 do
    let b = readable t !pos in
    let at = offset b !pos in
    let n = Int.min !left (Bytes.length b - at) in
    Bytes.blit b at dst !off n;
    pos := !pos + n;
    off := !off + n;
    left := !left - n
  done

let blit_in t ~addr ~src ~src_off ~len =
  check t addr len;
  let pos = ref addr and off = ref src_off and left = ref len in
  while !left > 0 do
    let span = Int.min !left (Bus.page_size - (!pos land Bus.page_mask)) in
    let b = writable t !pos ~span in
    let at = offset b !pos in
    let n = Int.min !left (Bytes.length b - at) in
    Bytes.blit src !off b at n;
    pos := !pos + n;
    off := !off + n;
    left := !left - n
  done

let read t ~addr ~len =
  let b = Bytes.create len in
  blit_out t ~addr ~dst:b ~dst_off:0 ~len;
  b

let write t ~addr data = blit_in t ~addr ~src:data ~src_off:0 ~len:(Bytes.length data)

let read8 t addr =
  check t addr 1;
  let b = readable t addr in
  Char.code (Bytes.get b (offset b addr))

let write8 t addr v =
  check t addr 1;
  let b = writable t addr ~span:1 in
  Bytes.set b (offset b addr) (Char.chr (v land 0xff))

(* Scalar accessors: when the access sits inside one chunk (the common
   case — descriptors are naturally aligned), use the runtime's
   little-endian primitives on the chunk or page directly; fall back to
   byte assembly only when straddling a chunk boundary. *)

let fits_in_chunk addr n = addr land chunk_mask <= chunk_size - n

let read16 t addr =
  if fits_in_chunk addr 2 then begin
    check t addr 2;
    let b = readable t addr in
    Bytes.get_uint16_le b (offset b addr)
  end
  else read8 t addr lor (read8 t (addr + 1) lsl 8)

let read32 t addr =
  if fits_in_chunk addr 4 then begin
    check t addr 4;
    let b = readable t addr in
    Int32.to_int (Bytes.get_int32_le b (offset b addr)) land 0xFFFFFFFF
  end
  else read16 t addr lor (read16 t (addr + 2) lsl 16)

let write16 t addr v =
  if fits_in_chunk addr 2 then begin
    check t addr 2;
    let b = writable t addr ~span:2 in
    Bytes.set_uint16_le b (offset b addr) (v land 0xFFFF)
  end
  else begin
    write8 t addr v;
    write8 t (addr + 1) (v lsr 8)
  end

let write32 t addr v =
  if fits_in_chunk addr 4 then begin
    check t addr 4;
    let b = writable t addr ~span:4 in
    Bytes.set_int32_le b (offset b addr) (Int32.of_int v)
  end
  else begin
    write16 t addr v;
    write16 t (addr + 2) (v lsr 16)
  end

let write64 t addr v =
  if fits_in_chunk addr 8 then begin
    check t addr 8;
    let b = writable t addr ~span:8 in
    Bytes.set_int64_le b (offset b addr) v
  end
  else begin
    write32 t addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
    write32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

let alloc_pages t ~pages =
  if pages <= 0 then invalid_arg "Phys_mem.alloc_pages";
  let start =
    match Hashtbl.find_opt t.free_runs pages with
    | Some (p :: rest) ->
      Hashtbl.replace t.free_runs pages rest;
      p
    | Some [] | None ->
      let p = t.bump in
      if (p + pages) * Bus.page_size > t.size then failwith "Phys_mem: out of physical memory";
      t.bump <- p + pages;
      p
  in
  t.outstanding <- t.outstanding + pages;
  start * Bus.page_size

let free_pages t ~addr ~pages =
  if not (Bus.is_page_aligned addr) then invalid_arg "Phys_mem.free_pages: unaligned";
  check t addr (pages * Bus.page_size);
  let start = addr lsr page_shift in
  for idx = start to start + pages - 1 do
    let dir = t.dirs.(idx lsr dir_shift) in
    if Array.length dir > 0 then dir.(idx land dir_mask) <- Zero
  done;
  let runs = Option.value ~default:[] (Hashtbl.find_opt t.free_runs pages) in
  Hashtbl.replace t.free_runs pages (start :: runs);
  t.outstanding <- t.outstanding - pages

let allocated_pages t = t.outstanding

let resident_bytes t =
  let page_bytes = function
    | Zero -> 0
    | Whole p -> Bytes.length p
    | Chunks cs -> Array.fold_left (fun n c -> n + Bytes.length c) 0 cs
  in
  Array.fold_left (Array.fold_left (fun n pg -> n + page_bytes pg)) 0 t.dirs
