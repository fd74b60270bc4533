exception Bus_error of int

type t = {
  size : int;
  pages : (int, bytes) Hashtbl.t;
  mutable bump : int;           (* next never-allocated page index *)
  free_runs : (int, int list) Hashtbl.t;  (* run length -> start pages *)
  mutable outstanding : int;
  (* One-entry page cache: DMA is overwhelmingly sequential (descriptor
     rings, packet buffers), so the last page touched answers the next
     access without a Hashtbl lookup.  Pages are never removed from the
     table once materialized, so the cached bytes can never go stale. *)
  mutable last_idx : int;
  mutable last_page : bytes;
}

let create ~size =
  let size = Bus.page_align_up size in
  if size <= 0 then invalid_arg "Phys_mem.create: size must be positive";
  (* The first 64 KiB stay unallocated, like the reserved low memory of a
     real machine — so no DMA structure ever lands at address 0, which
     device schedules use as a null link. *)
  { size; pages = Hashtbl.create 1024; bump = 16; free_runs = Hashtbl.create 8; outstanding = 0;
    last_idx = -1; last_page = Bytes.empty }

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    raise (Bus_error addr)

let page t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
        let p = Bytes.make Bus.page_size '\000' in
        Hashtbl.add t.pages idx p;
        p
    in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

let blit_out t ~addr ~dst ~dst_off ~len =
  check t addr len;
  let in_page = addr land Bus.page_mask in
  if in_page + len <= Bus.page_size then
    (* Single-page fast path: one blit, no loop state. *)
    Bytes.blit (page t (addr / Bus.page_size)) in_page dst dst_off len
  else begin
    let pos = ref addr and off = ref dst_off and left = ref len in
    while !left > 0 do
      let idx = !pos / Bus.page_size and in_page = !pos land Bus.page_mask in
      let chunk = min !left (Bus.page_size - in_page) in
      Bytes.blit (page t idx) in_page dst !off chunk;
      pos := !pos + chunk;
      off := !off + chunk;
      left := !left - chunk
    done
  end

let blit_in t ~addr ~src ~src_off ~len =
  check t addr len;
  let in_page = addr land Bus.page_mask in
  if in_page + len <= Bus.page_size then
    Bytes.blit src src_off (page t (addr / Bus.page_size)) in_page len
  else begin
    let pos = ref addr and off = ref src_off and left = ref len in
    while !left > 0 do
      let idx = !pos / Bus.page_size and in_page = !pos land Bus.page_mask in
      let chunk = min !left (Bus.page_size - in_page) in
      Bytes.blit src !off (page t idx) in_page chunk;
      pos := !pos + chunk;
      off := !off + chunk;
      left := !left - chunk
    done
  end

let read t ~addr ~len =
  let b = Bytes.create len in
  blit_out t ~addr ~dst:b ~dst_off:0 ~len;
  b

let write t ~addr data = blit_in t ~addr ~src:data ~src_off:0 ~len:(Bytes.length data)

let read8 t addr =
  check t addr 1;
  Char.code (Bytes.get (page t (addr / Bus.page_size)) (addr land Bus.page_mask))

let write8 t addr v =
  check t addr 1;
  Bytes.set (page t (addr / Bus.page_size)) (addr land Bus.page_mask) (Char.chr (v land 0xff))

(* Scalar accessors: when the access sits inside one page (the common case
   — descriptors are naturally aligned), use the runtime's little-endian
   primitives on the page directly; fall back to byte assembly only when
   straddling a page boundary. *)

let fits_in_page addr n = addr land Bus.page_mask <= Bus.page_size - n

let read16 t addr =
  if fits_in_page addr 2 then begin
    check t addr 2;
    Bytes.get_uint16_le (page t (addr / Bus.page_size)) (addr land Bus.page_mask)
  end
  else read8 t addr lor (read8 t (addr + 1) lsl 8)

let read32 t addr =
  if fits_in_page addr 4 then begin
    check t addr 4;
    Int32.to_int (Bytes.get_int32_le (page t (addr / Bus.page_size)) (addr land Bus.page_mask))
    land 0xFFFFFFFF
  end
  else read16 t addr lor (read16 t (addr + 2) lsl 16)

let write16 t addr v =
  if fits_in_page addr 2 then begin
    check t addr 2;
    Bytes.set_uint16_le (page t (addr / Bus.page_size)) (addr land Bus.page_mask)
      (v land 0xFFFF)
  end
  else begin
    write8 t addr v;
    write8 t (addr + 1) (v lsr 8)
  end

let write32 t addr v =
  if fits_in_page addr 4 then begin
    check t addr 4;
    Bytes.set_int32_le (page t (addr / Bus.page_size)) (addr land Bus.page_mask)
      (Int32.of_int v)
  end
  else begin
    write16 t addr v;
    write16 t (addr + 2) (v lsr 16)
  end

let write64 t addr v =
  if fits_in_page addr 8 then begin
    check t addr 8;
    Bytes.set_int64_le (page t (addr / Bus.page_size)) (addr land Bus.page_mask) v
  end
  else begin
    write32 t addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
    write32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

let fill t ~addr ~len c =
  check t addr len;
  let pos = ref addr and left = ref len in
  while !left > 0 do
    let idx = !pos / Bus.page_size and in_page = !pos land Bus.page_mask in
    let chunk = min !left (Bus.page_size - in_page) in
    Bytes.fill (page t idx) in_page chunk c;
    pos := !pos + chunk;
    left := !left - chunk
  done

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
  fill t ~addr ~len:(pages * Bus.page_size) '\000';
  let start = addr / Bus.page_size in
  let runs = Option.value ~default:[] (Hashtbl.find_opt t.free_runs pages) in
  Hashtbl.replace t.free_runs pages (start :: runs);
  t.outstanding <- t.outstanding - pages

let allocated_pages t = t.outstanding
