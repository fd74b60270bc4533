type buf = { id : int; addr : int; size : int }

type t = {
  rd : off:int -> len:int -> bytes;
  wr : off:int -> data:bytes -> unit;
  base_addr : int;
  n : int;
  bsize : int;
  free_ids : int Queue.t;
  allocated : bool array;
}

let region_size ~count ~buf_size = count * buf_size

let create ~read ~write ~base_addr ~count ~buf_size =
  if count <= 0 || buf_size <= 0 then invalid_arg "Bufpool.create";
  let free_ids = Queue.create () in
  for i = 0 to count - 1 do Queue.push i free_ids done;
  { rd = read; wr = write; base_addr; n = count; bsize = buf_size; free_ids; allocated = Array.make count false }

let buf_size t = t.bsize

let mk t id = { id; addr = t.base_addr + (id * t.bsize); size = t.bsize }

let alloc t =
  match Queue.take_opt t.free_ids with
  | None -> None
  | Some id ->
    t.allocated.(id) <- true;
    Some (mk t id)

let free t id =
  if id >= 0 && id < t.n && t.allocated.(id) then begin
    t.allocated.(id) <- false;
    Queue.push id t.free_ids
  end

let get t id = if id >= 0 && id < t.n && t.allocated.(id) then Some (mk t id) else None

let page_size = 4096  (* the IOMMU's page *)

let request_addr b ~len =
  let pages = b.size / page_size in
  if pages <= 1 then b.addr
  else
    let need = (len + page_size - 1) / page_size in
    b.addr + (max 0 (min (b.id / pages mod pages) (pages - need)) * page_size)

let in_use t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.allocated

let check b ~off ~len =
  if off < 0 || len < 0 || off + len > b.size then invalid_arg "Bufpool: out of bounds"

let read t b ~off ~len =
  check b ~off ~len;
  t.rd ~off:((b.id * t.bsize) + off) ~len

let write t b ~off data =
  check b ~off ~len:(Bytes.length data);
  t.wr ~off:((b.id * t.bsize) + off) ~data
