(* What survives a supervised device's driver generations: the netdev,
   None until the first registration creates it, and the backlog bound. *)
type persist = { mutable p_netdev : Netdev.t option; p_backlog_limit : int }

let persist_create ~backlog_limit = { p_netdev = None; p_backlog_limit = backlog_limit }
let persist_netdev p = p.p_netdev

type t = {
  k : Kernel.t;
  sud : Cpu.cell;  (* "kernel:sud", the ledger line of SUD's kernel-side work *)
  chan : Uchan.t;
  grant : Safe_pci.grant;
  pool : Bufpool.t;
  name : string;
  defensive_copy : bool;
  adopt : persist option;
  mutable dev : Netdev.t option;
  ready : Sync.Waitq.t;
  mutable is_hung : bool;
  (* Lifecycle gate: between quiesce and resume the proxy admits no new
     upcalls, so nothing enters the channel of a generation about to be
     killed.  Transmits bounce as Xmit_busy; an adopted netdev parks
     them in its backlog instead. *)
  mutable quiescing : bool;
  (* The parked frame [resume] is handing to the driver: the only
     transmit an adopted netdev lets through before its backlog drains. *)
  mutable replaying : Skbuff.t option;
  rx_bad : Sud_obs.Metrics.counter;
  rx_csum_bad : Sud_obs.Metrics.counter;
  (* Defensive-copy buffer recycling: freed buffers keyed by size, so a
     steady-state RX flood allocates nothing per frame.  The skb hands
     its buffer back through [Skbuff.recycle] once the stack is done. *)
  rx_bufs : (int, int * bytes list) Hashtbl.t;
  pool_hits : Sud_obs.Metrics.counter;
  pool_fresh : Sud_obs.Metrics.counter;
  (* IRQ-coalescing observability: frames delivered on each ring since
     that queue's last irq-ack downcall.  Each ack observes the count
     into the poll-batch histogram. *)
  frames_since_ack : int array;
  frames_per_poll : Sud_obs.Metrics.histogram;
  budget_exhausted : Sud_obs.Metrics.counter array;
}

(* One NAPI budget round on the driver side (e1000's [napi_budget]); a
   poll that drained at least this many frames before acking had to run
   extra budget rounds, which is the "stayed in polling mode" signal. *)
let napi_budget_hint = 64

let rx_pool_cap = 64            (* retained free buffers per size class *)

let pool_get t len =
  match Hashtbl.find_opt t.rx_bufs len with
  | Some (n, b :: rest) ->
    Hashtbl.replace t.rx_bufs len (n - 1, rest);
    Sud_obs.Metrics.incr t.pool_hits;
    b
  | Some (_, []) | None ->
    Sud_obs.Metrics.incr t.pool_fresh;
    Bytes.create len

let pool_put t b =
  let len = Bytes.length b in
  match Hashtbl.find_opt t.rx_bufs len with
  | Some (n, _) when n >= rx_pool_cap -> ()
  | Some (n, l) -> Hashtbl.replace t.rx_bufs len (n + 1, b :: l)
  | None -> Hashtbl.replace t.rx_bufs len (1, [ b ])

let model t = Cpu.cost_model t.k.Kernel.cpu

let klogf t lvl fmt = Klog.printk t.k.Kernel.klog lvl fmt

let mark_hung t why =
  if not t.is_hung then begin
    t.is_hung <- true;
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.recall "uchan.rpc.last") ~cat:"proxy"
           ~name:"hung" ~attrs:[ "driver", t.name; "why", why ] ());
    klogf t Klog.Warn "sud-net(%s): driver appears hung (%s); kill and restart it" t.name why
  end

(* Clamp a device queue onto a ring/TX queue the channel and netdev
   actually have; a malicious driver naming a wild queue lands on 0. *)
let uq t q = if q >= 0 && q < Uchan.num_queues t.chan then q else 0

let dq t q =
  match t.dev with
  | Some dev when q >= 0 && q < Netdev.tx_queues dev -> q
  | _ -> 0

(* ---- netdev ops: kernel callbacks -> upcalls ---- *)

(* A sync upcall's result, after recording a [Hung] one against the
   driver. *)
let hung_on t why r =
  (match r with Error Uchan.Hung -> mark_hung t why | Ok _ | Error _ -> ());
  r

let do_open t () =
  Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_net_open ())
  |> hung_on t "open upcall timed out" |> Proxy_proto.status |> Result.map ignore

let do_stop t () =
  ignore
    (hung_on t "stop upcall timed out"
       (Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_net_stop ()))
     : (Msg.t, Uchan.error) result)

let do_ioctl t ~cmd ~arg =
  if t.quiescing then Error "driver quiesced"
  else
    Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_net_ioctl ~args:[ cmd; arg ] ())
    |> hung_on t "ioctl upcall timed out" |> Proxy_proto.status
    |> Result.map (fun r -> Msg.arg r 1)

let do_xmit t ~queue skb =
  if t.quiescing then Netdev.Xmit_busy
  else
  match Bufpool.alloc t.pool with
  | None -> Netdev.Xmit_busy       (* all shared buffers in flight *)
  | Some buf ->
    let len = Skbuff.length skb in
    if len > buf.Bufpool.size then begin
      Bufpool.free t.pool buf.Bufpool.id;
      Netdev.Xmit_busy
    end
    else begin
      (* The single data copy on the TX path: skb -> shared buffer.  The
         driver and the device then use the same bytes in place.  The
         upcall rides the ring matching the TX queue, so queue q's
         traffic wakes only the driver's queue-q service fiber. *)
      Cpu.charge t.sud (Cost_model.copy_cost (model t) ~bytes:len);
      Bufpool.write t.pool buf ~off:0 skb.Skbuff.data;
      match
        Uchan.post ~queue:(uq t queue) t.chan
          (Msg.make ~kind:Proxy_proto.up_net_xmit ~args:[ buf.Bufpool.id; len ] ())
      with
      | Ok () -> Netdev.Xmit_ok
      | Error Uchan.Hung ->
        Bufpool.free t.pool buf.Bufpool.id;
        mark_hung t "transmit queue stalled";
        Netdev.Xmit_busy
      | Error (Uchan.Interrupted | Uchan.Closed) ->
        Bufpool.free t.pool buf.Bufpool.id;
        Netdev.Xmit_busy
    end

(* ---- downcall servicing ---- *)

let handle_rx t ~queue m =
  let iova = Msg.arg m 0 and len = Msg.arg m 1 in
  match t.dev with
  | None -> ()
  | Some dev ->
    if len <= 0 || len > 9018 then begin
      Sud_obs.Metrics.incr t.rx_bad;
      klogf t Klog.Warn "sud-net(%s): netif_rx with bogus length %d" t.name len
    end
    else begin
      let buf = pool_get t len in
      match Safe_pci.read_driver_mem_into t.grant ~iova ~len ~dst:buf ~dst_off:0 with
      | Error e ->
        pool_put t buf;
        Sud_obs.Metrics.incr t.rx_bad;
        klogf t Klog.Warn "sud-net(%s): netif_rx rejected: %s" t.name e
      | Ok () ->
        (* The fused defensive-copy + checksum pass (§3.1.2): one sweep
           copies driver memory into the private (pooled) buffer and
           folds the transport checksum over the copy, so it costs
           max(copy, checksum) + epsilon instead of two full passes, and
           the verdict is immune to the driver rewriting its buffer. *)
        Cpu.charge t.sud (Cost_model.fused_copy_checksum_cost (model t) ~bytes:len);
        if not (Netstack.frame_checksum_ok buf) then begin
          Sud_obs.Metrics.incr t.rx_csum_bad;
          pool_put t buf;
          klogf t Klog.Warn "sud-net(%s): bad checksum from driver, dropping frame" t.name
        end
        else begin
          t.frames_since_ack.(uq t queue) <- t.frames_since_ack.(uq t queue) + 1;
          let skb = Skbuff.of_bytes buf in
          skb.Skbuff.csum_verified <- true;
          (* Even if [refresh] below swaps the delivered bytes, the pooled
             buffer itself comes home when the stack is done with the skb. *)
          skb.Skbuff.recycle <- Some (fun () -> pool_put t buf);
          if not t.defensive_copy then begin
            (* Vulnerable configuration: the stack re-reads driver memory at
               delivery time. *)
            skb.Skbuff.shared_with_driver <- true;
            skb.Skbuff.refresh <-
              Some
                (fun () ->
                   match Safe_pci.read_driver_mem t.grant ~iova ~len with
                   | Ok fresh -> fresh
                   | Error _ -> skb.Skbuff.data)
          end;
          Netdev.netif_rx dev skb
        end
    end

let make_ops t =
  { Netdev.ndo_open = (fun () -> do_open t ());
    ndo_stop = (fun () -> do_stop t ());
    ndo_start_xmit = (fun ~queue skb -> do_xmit t ~queue skb);
    ndo_do_ioctl = (fun ~cmd ~arg -> do_ioctl t ~cmd ~arg) }

(* A new generation's ops on an adopted netdev until [resume] has
   drained the backlog: open, stop and ioctl are live, but a transmit
   parks behind what the outage parked, so no frame overtakes them. *)
let parking_ops t dev ~limit =
  { (make_ops t) with
    Netdev.ndo_start_xmit =
      (fun ~queue skb ->
         match t.replaying with
         | Some r when r == skb -> do_xmit t ~queue skb
         | Some _ | None -> Netdev.backlog_push dev ~queue ~limit skb) }

let handle_register t m =
  if Bytes.length m.Msg.payload = 6 && t.dev = None then begin
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"proxy" ~name:"register"
           ~attrs:[ "driver", t.name ] ());
    let mac = Bytes.copy m.Msg.payload in
    let dev =
      match t.adopt with
      | Some { p_netdev = Some dev; p_backlog_limit = limit } ->
        (* Supervised restart, cold or warm: the netdev survived the
           previous driver's death, and the fresh generation takes it
           over in place (its MAC and ops; name, queues and backlog
           stay), re-registering it only if it left the stack.  Its
           transmits go live only once [resume] has replayed the
           backlog. *)
        Netdev.set_mac dev mac;
        Netdev.set_ops dev (parking_ops t dev ~limit);
        if Netstack.find_netdev t.k.Kernel.net (Netdev.name dev) = None then
          Netstack.register_netdev t.k.Kernel.net dev;
        dev
      | Some { p_netdev = None; _ } | None ->
        (* The register downcall carries the driver's queue count; the
           netdev gets that many TX queues, clamped by the rings the
           channel has. *)
        let tx_queues = min (max 1 (Msg.arg m 0)) (Uchan.num_queues t.chan) in
        let dev = Netdev.create ~name:t.name ~mac ~ops:(make_ops t) ~tx_queues () in
        Option.iter (fun p -> p.p_netdev <- Some dev) t.adopt;
        Netstack.register_netdev t.k.Kernel.net dev;
        dev
    in
    t.dev <- Some dev;
    ignore (Sync.Waitq.broadcast t.ready : int);
    Some (Msg.make ~kind:Proxy_proto.down_net_register ~args:[ 0 ] ())
  end
  else Some (Msg.make ~kind:Proxy_proto.down_net_register ~args:[ 1 ] ())

let handle_downcall t ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.down_net_register then handle_register t m
  else if kind = Proxy_proto.down_netif_rx then begin
    handle_rx t ~queue m;
    None
  end
  else if kind = Proxy_proto.down_tx_free then begin
    Bufpool.free t.pool (Msg.arg m 0);
    (match t.dev with
     | Some dev when Netdev.subqueue_stopped dev ~queue:(dq t queue) ->
       Netdev.netif_wake_subqueue dev ~queue:(dq t queue)
     | Some _ | None -> ());
    None
  end
  else if kind = Proxy_proto.down_tx_done then begin
    (match t.dev with
     | Some dev -> Netdev.netif_wake_subqueue dev ~queue:(dq t queue)
     | None -> ());
    None
  end
  else if kind = Proxy_proto.down_carrier then begin
    (match t.dev with
     | Some dev -> if Msg.arg m 0 <> 0 then Netdev.netif_carrier_on dev else Netdev.netif_carrier_off dev
     | None -> ());
    None
  end
  else begin
    if kind = Proxy_proto.down_irq_ack then begin
      (* arg 0 names the device queue whose vector to unmask; older
         single-queue drivers send no args, and Msg.arg defaults to 0. *)
      let q = uq t (Msg.arg m 0) in
      let n = t.frames_since_ack.(q) in
      if n > 0 then begin
        (* How many frames one interrupt covered — the NAPI coalescing
           factor.  Zero-frame acks (TX-only polls, the runtime's
           redundant post-handler ack) would only dilute the histogram. *)
        t.frames_since_ack.(q) <- 0;
        Sud_obs.Metrics.observe t.frames_per_poll n;
        if n >= napi_budget_hint then Sud_obs.Metrics.incr t.budget_exhausted.(q)
      end
    end;
    Proxy_class.downcall t.k t.grant ~cls:"net" ~name:t.name m
  end

let create k ~chan ~grant ~pool ~name ?(defensive_copy = true) ?adopt () =
  let nq = Uchan.num_queues chan in
  let t =
    { k;
      sud = Cpu.cell k.Kernel.cpu "kernel:sud";
      chan;
      grant;
      pool;
      name;
      defensive_copy;
      adopt;
      dev = None;
      ready = Sync.Waitq.create ();
      is_hung = false;
      quiescing = false;
      replaying = None;
      rx_bad =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"rx_validation_failures" ();
      rx_csum_bad =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"rx_checksum_failures" ();
      rx_bufs = Hashtbl.create 8;
      pool_hits =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"rx_pool_hits" ();
      pool_fresh =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"rx_pool_fresh" ();
      frames_since_ack = Array.make nq 0;
      frames_per_poll =
        Sud_obs.Metrics.histogram ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"frames_per_poll" ();
      budget_exhausted =
        Array.init nq (fun q ->
            Sud_obs.Metrics.counter
              ~labels:[ "driver", name; "queue", string_of_int q ]
              ~subsystem:"proxy" ~name:"napi_budget_exhausted" ()) }
  in
  Uchan.set_downcall_handler chan (fun ~queue m -> handle_downcall t ~queue m);
  t

let netdev t = t.dev

let wait_registered t ~timeout_ns =
  Sync.Waitq.await t.k.Kernel.eng t.ready ~timeout_ns (fun () -> t.dev <> None) = Fiber.Normal

let hung t = t.is_hung

let unregister t =
  match t.dev with
  | Some dev ->
    Netstack.unregister_netdev t.k.Kernel.net dev;
    t.dev <- None
  | None -> ()

let rx_validation_failures t = Sud_obs.Metrics.get t.rx_bad
let rx_pool_counters t = (Sud_obs.Metrics.get t.pool_hits, Sud_obs.Metrics.get t.pool_fresh)
let frames_per_poll t = t.frames_per_poll

(* While no driver serves an adopted netdev it degrades instead of
   vanishing: carrier goes off and transmits park in its bounded
   per-queue backlog, senders parked on a stopped queue included. *)
let quiesce t =
  (match t.adopt with
   | Some { p_netdev = Some dev; p_backlog_limit = limit } ->
     Netdev.netif_carrier_off dev;
     Netdev.set_ops dev
       { Netdev.ndo_open = (fun () -> Ok ());
         ndo_stop = (fun () -> ());
         ndo_start_xmit = (fun ~queue skb -> Netdev.backlog_push dev ~queue ~limit skb);
         ndo_do_ioctl = (fun ~cmd:_ ~arg:_ -> Error "device recovering") };
     Netdev.netif_tx_wake_all_queues dev
   | Some { p_netdev = None; _ } | None -> ());
  t.quiescing <- true

(* Called on the new generation once its registration has taken the
   netdev over: reopen it if the administrator left it up, then replay
   the backlog queue by queue, each in FIFO order.  dev_xmit re-selects
   the queue with the same RSS hash that parked the frame, so a flow's
   frames replay onto their original queue in their original order.
   Frames offered meanwhile park behind the replay, so passes repeat
   until every queue is empty; the live ops go in with no suspension
   after that check.  A quiesce ends the replay and leaves the rest
   parked for the next generation. *)
let resume t =
  t.quiescing <- false;
  match t.adopt with
  | Some { p_netdev = None; _ } | None -> ()
  | Some { p_netdev = Some dev; _ } ->
    (if Netdev.is_up dev then
       match Netstack.ifconfig_up t.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> klogf t Klog.Warn "sud-net(%s): reopen failed: %s" t.name e);
    let rec replay q n =
      if t.quiescing then n
      else if q < Netdev.tx_queues dev then
        match Netdev.backlog_pop dev ~queue:q with
        | Some skb ->
          t.replaying <- Some skb;
          ignore (Netstack.dev_xmit t.k.Kernel.net dev skb : [ `Sent | `Dropped ]);
          t.replaying <- None;
          replay q (n + 1)
        | None -> replay (q + 1) n
      else if Sud_obs.Metrics.gauge_value (Netdev.metrics dev).Netdev.nm_bl_queued > 0 then
        replay 0 n
      else begin
        Netdev.set_ops dev (make_ops t);
        n
      end
    in
    let n = replay 0 0 in
    if n > 0 then
      klogf t Klog.Info "sud-net(%s): replayed %d frame%s after restart" t.name n
        (if n = 1 then "" else "s")

(* Take a supervised netdev out of service for good: drop what is
   parked, carrier off, down and out of the stack. *)
let release k p =
  match p.p_netdev with
  | None -> 0
  | Some dev ->
    let dropped = Netdev.backlog_flush_drop dev in
    Netdev.netif_carrier_off dev;
    Netdev.set_up dev false;
    (match Netstack.find_netdev k.Kernel.net (Netdev.name dev) with
     | Some d when d == dev -> Netstack.unregister_netdev k.Kernel.net dev
     | Some _ | None -> ());
    dropped

let instance t =
  { Proxy_class.chan = t.chan;
    hung = (fun () -> t.is_hung);
    quiesce = (fun () -> quiesce t);
    resume = (fun () -> resume t) }
