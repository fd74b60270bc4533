let block_size = 512

type t = {
  k : Kernel.t;
  chan : Uchan.t;
  pool : Bufpool.t;
  name : string;
  mutable cap : int option;
  mutable quiescing : bool;
  blk_wait : Sync.Waitq.t;
  mutable key_handler : (int -> unit) option;
  mutable keys : int;
}

let create k ~chan ~grant ~pool ~name () =
  let t =
    { k;
      chan;
      pool;
      name;
      cap = None;
      quiescing = false;
      blk_wait = Sync.Waitq.create ();
      key_handler = None;
      keys = 0 }
  in
  Uchan.set_downcall_handler chan (fun ~queue:_ m ->
      let kind = m.Msg.kind in
      if kind = Proxy_proto.down_blk_register then begin
        t.cap <- Some (Msg.arg m 0);
        ignore (Sync.Waitq.broadcast t.blk_wait : int);
        Some (Msg.make ~kind ~args:[ 0 ] ())
      end
      else if kind = Proxy_proto.down_input_key then begin
        t.keys <- t.keys + 1;
        (match t.key_handler with Some h -> h (Msg.arg m 0) | None -> ());
        None
      end
      else if kind = Proxy_proto.down_tx_free then begin
        Bufpool.free t.pool (Msg.arg m 0);
        None
      end
      else Proxy_class.downcall k grant ~cls:"usb" ~name m);
  t

let wait_block t ~timeout_ns =
  match Sync.Waitq.await t.k.Kernel.eng t.blk_wait ~timeout_ns (fun () -> t.cap <> None) with
  | Fiber.Normal -> t.cap
  | Fiber.Timeout | Fiber.Interrupted -> None

(* Block data moves through shared buffers, at most one pool buffer per
   request; larger requests are split. *)
let max_blocks_per_req t = Bufpool.buf_size t.pool / block_size

let read_chunk t ~lba ~count =
  if t.quiescing then Error "driver quiesced"
  else
  match Bufpool.alloc t.pool with
  | None -> Error "no shared buffers"
  | Some buf ->
    let finish r =
      Bufpool.free t.pool buf.Bufpool.id;
      r
    in
    Uchan.call t.chan
      (Msg.make ~kind:Proxy_proto.up_blk_read ~args:[ lba; count; buf.Bufpool.id ] ())
    |> Proxy_proto.status
    (* Defensive copy out of the shared buffer. *)
    |> Result.map (fun _ -> Bufpool.read t.pool buf ~off:0 ~len:(count * block_size))
    |> finish

let read_blocks t ~lba ~count =
  if count <= 0 then Error "count must be positive"
  else begin
    let chunk = max_blocks_per_req t in
    let rec go lba count acc =
      if count = 0 then Ok (Bytes.concat Bytes.empty (List.rev acc))
      else begin
        let n = min count chunk in
        match read_chunk t ~lba ~count:n with
        | Error e -> Error e
        | Ok b -> go (lba + n) (count - n) (b :: acc)
      end
    in
    go lba count []
  end

let write_chunk t ~lba data =
  if t.quiescing then Error "driver quiesced"
  else
  let count = Bytes.length data / block_size in
  match Bufpool.alloc t.pool with
  | None -> Error "no shared buffers"
  | Some buf ->
    Bufpool.write t.pool buf ~off:0 data;
    let finish r =
      Bufpool.free t.pool buf.Bufpool.id;
      r
    in
    Uchan.call t.chan
      (Msg.make ~kind:Proxy_proto.up_blk_write ~args:[ lba; count; buf.Bufpool.id ] ())
    |> Proxy_proto.status |> Result.map ignore |> finish

let write_blocks t ~lba data =
  if Bytes.length data = 0 || Bytes.length data mod block_size <> 0 then
    Error "write must be whole blocks"
  else begin
    let chunk = max_blocks_per_req t * block_size in
    let rec go lba off =
      if off >= Bytes.length data then Ok ()
      else begin
        let n = min chunk (Bytes.length data - off) in
        match write_chunk t ~lba (Bytes.sub data off n) with
        | Error e -> Error e
        | Ok () -> go (lba + (n / block_size)) (off + n)
      end
    in
    go lba 0
  end

let set_key_handler t h = t.key_handler <- Some h
let keys_received t = t.keys

let instance t =
  { Proxy_class.chan = t.chan;
    hung = (fun () -> false);
    quiesce = (fun () -> t.quiescing <- true);
    resume = (fun () -> t.quiescing <- false) }
