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

(* One block request in one pool buffer: [fill] puts the payload in
   before the upcall, [drain] copies the reply out of it after. *)
let request t ~kind ~lba ~count ~fill ~drain =
  if t.quiescing then Error "driver quiesced"
  else
    match Bufpool.alloc t.pool with
    | None -> Error "no shared buffers"
    | Some buf ->
      fill buf;
      let r =
        Uchan.call t.chan (Msg.make ~kind ~args:[ lba; count; buf.Bufpool.id ] ())
        |> Proxy_proto.status
        |> Result.map (fun _ -> drain buf)
      in
      Bufpool.free t.pool buf.Bufpool.id;
      r

(* Split [count] blocks at [lba] into requests of at most one pool
   buffer each, issued in order by [piece]; the first error ends it. *)
let split t ~lba ~count piece =
  let chunk = Bufpool.buf_size t.pool / block_size in
  let rec go lba count acc =
    if count = 0 then Ok (List.rev acc)
    else begin
      let n = min count chunk in
      match piece ~lba ~count:n with
      | Error e -> Error e
      | Ok x -> go (lba + n) (count - n) (x :: acc)
    end
  in
  go lba count []

let read_blocks t ~lba ~count =
  if count <= 0 then Error "count must be positive"
  else
    split t ~lba ~count (fun ~lba ~count ->
        (* Defensive copy out of the shared buffer. *)
        request t ~kind:Proxy_proto.up_blk_read ~lba ~count ~fill:ignore ~drain:(fun buf ->
            Bufpool.read t.pool buf ~off:0 ~len:(count * block_size)))
    |> Result.map (Bytes.concat Bytes.empty)

let write_blocks t ~lba data =
  let len = Bytes.length data in
  if len = 0 || len mod block_size <> 0 then Error "write must be whole blocks"
  else
    let first = lba in
    split t ~lba ~count:(len / block_size) (fun ~lba ~count ->
        request t ~kind:Proxy_proto.up_blk_write ~lba ~count ~drain:ignore ~fill:(fun buf ->
            Bufpool.write t.pool buf ~off:0
              (Bytes.sub data ((lba - first) * block_size) (count * block_size))))
    |> Result.map ignore

let set_key_handler t h = t.key_handler <- Some h
let keys_received t = t.keys

let instance t =
  { Proxy_class.chan = t.chan;
    hung = (fun () -> false);
    quiesce = (fun () -> t.quiescing <- true);
    resume = (fun () -> t.quiescing <- false) }
