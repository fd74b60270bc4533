type t = {
  k : Kernel.t;
  chan : Uchan.t;
  grant : Safe_pci.grant;
  pool : Bufpool.t;
  name : string;
  mutable ready : bool;
  mutable quiescing : bool;
  ready_wait : Sync.Waitq.t;
  mutable periods : int;
  period_wait : Sync.Waitq.t;
}

let handle_downcall t m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.down_audio_register then begin
    t.ready <- true;
    ignore (Sync.Waitq.broadcast t.ready_wait : int);
    Some (Msg.make ~kind ~args:[ 0 ] ())
  end
  else if kind = Proxy_proto.down_audio_period then begin
    t.periods <- t.periods + 1;
    ignore (Sync.Waitq.broadcast t.period_wait : int);
    None
  end
  else if kind = Proxy_proto.down_tx_free then begin
    Bufpool.free t.pool (Msg.arg m 0);
    None
  end
  else Proxy_class.downcall t.k t.grant ~cls:"audio" ~name:t.name m

let create k ~chan ~grant ~pool ~name () =
  let t =
    { k;
      chan;
      grant;
      pool;
      name;
      ready = false;
      quiescing = false;
      ready_wait = Sync.Waitq.create ();
      periods = 0;
      period_wait = Sync.Waitq.create () }
  in
  Uchan.set_downcall_handler chan (fun ~queue:_ m -> handle_downcall t m);
  t

let wait_cond t waitq ~timeout_ns cond =
  Sync.Waitq.await t.k.Kernel.eng waitq ~timeout_ns cond = Fiber.Normal

let wait_ready t ~timeout_ns = wait_cond t t.ready_wait ~timeout_ns (fun () -> t.ready)

let sync_call t kind args =
  if t.quiescing then Error "driver quiesced"
  else Proxy_proto.status (Uchan.call t.chan (Msg.make ~kind ~args ()))

let start t = Result.map (fun _ -> ()) (sync_call t Proxy_proto.up_audio_start [])
let stop t = Result.map (fun _ -> ()) (sync_call t Proxy_proto.up_audio_stop [])

let write t pcm =
  if t.quiescing then 0
  else
  match Bufpool.alloc t.pool with
  | None -> 0
  | Some buf ->
    let n = min (Bytes.length pcm) buf.Bufpool.size in
    Bufpool.write t.pool buf ~off:0 (Bytes.sub pcm 0 n);
    (match
       Uchan.post t.chan
         (Msg.make ~kind:Proxy_proto.up_audio_write ~args:[ buf.Bufpool.id; n ] ())
     with
     | Ok () -> n
     | Error _ ->
       Bufpool.free t.pool buf.Bufpool.id;
       0)

let set_volume t v = Result.map (fun _ -> ()) (sync_call t Proxy_proto.up_audio_set_vol [ v ])

let get_volume t =
  Result.map (fun r -> Msg.arg r 1) (sync_call t Proxy_proto.up_audio_get_vol [])

let periods_elapsed t = t.periods

let wait_period t ~timeout_ns =
  let before = t.periods in
  wait_cond t t.period_wait ~timeout_ns (fun () -> t.periods > before)

let instance t =
  { Proxy_class.chan = t.chan;
    hung = (fun () -> false);
    quiesce = (fun () -> t.quiescing <- true);
    resume = (fun () -> t.quiescing <- false) }
