type t = {
  k : Kernel.t;
  sud : Cpu.cell;  (* "kernel:sud", the ledger line of SUD's kernel-side work *)
  chan : Uchan.t;
  grant : Safe_pci.grant;
  pool : Bufpool.t;
  name : string;
  defensive_copy : bool;
  adopt : Netdev.t option;       (* surviving netdev from a prior driver generation *)
  mutable dev : Netdev.t option;
  (* Warm-standby parking: a parked proxy lets its driver initialize and
     register, but records the registration instead of touching the
     netstack — the kernel-facing netdev stays with the live generation
     until the supervisor swaps this proxy in via [adopt]. *)
  mutable parked : bool;
  mutable pending_attach : (bytes * int) option;   (* mac, tx_queues *)
  ready : Sync.Waitq.t;
  mutable is_hung : bool;
  (* Lifecycle gate: between quiesce and resume the proxy admits no new
     upcalls, so nothing enters the channel of a generation about to be
     killed.  Transmits bounce as Xmit_busy and land in the supervisor's
     backlog for replay. *)
  mutable quiescing : bool;
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

let do_open t () =
  match Uchan.transfer t.chan ~from:`Kernel Uchan.Sync (Msg.make ~kind:Proxy_proto.up_net_open ()) with
  | Ok r when Msg.arg r 0 = 0 -> Ok ()
  | Ok r -> Error (Bytes.to_string r.Msg.payload)
  | Error Uchan.Hung ->
    mark_hung t "open upcall timed out";
    Error "driver hung"
  | Error Uchan.Interrupted -> Error "interrupted"
  | Error Uchan.Closed -> Error "driver is gone"

let do_stop t () =
  match Uchan.transfer t.chan ~from:`Kernel Uchan.Sync (Msg.make ~kind:Proxy_proto.up_net_stop ()) with
  | Ok _ -> ()
  | Error Uchan.Hung -> mark_hung t "stop upcall timed out"
  | Error (Uchan.Interrupted | Uchan.Closed) -> ()

let do_ioctl t ~cmd ~arg =
  if t.quiescing then Error "driver quiesced"
  else
  match
    Uchan.transfer t.chan ~from:`Kernel Uchan.Sync
      (Msg.make ~kind:Proxy_proto.up_net_ioctl ~args:[ cmd; arg ] ())
  with
  | Ok r when Msg.arg r 0 = 0 -> Ok (Msg.arg r 1)
  | Ok r -> Error (Bytes.to_string r.Msg.payload)
  | Error Uchan.Hung ->
    mark_hung t "ioctl upcall timed out";
    Error "driver hung"
  | Error Uchan.Interrupted -> Error "interrupted"
  | Error Uchan.Closed -> Error "driver is gone"

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
      Driver_api.charge t.sud
        (Cost_model.copy_cost (model t) ~bytes:len);
      Bufpool.write t.pool buf ~off:0 skb.Skbuff.data;
      match
        Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Kernel Uchan.Async
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
        Driver_api.charge t.sud
          (Cost_model.fused_copy_checksum_cost (model t) ~bytes:len);
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

let handle_register t m =
  if Bytes.length m.Msg.payload = 6 && t.parked && t.pending_attach = None then begin
    (* Parked (warm-standby) registration: accept the driver's identity
       so it can finish initializing, but leave the netstack alone — the
       live generation still owns the netdev.  [adopt] applies this. *)
    t.pending_attach <- Some (Bytes.copy m.Msg.payload, max 1 (Msg.arg m 0));
    ignore (Sync.Waitq.broadcast t.ready : int);
    Some (Msg.make ~kind:Proxy_proto.down_net_register ~args:[ 0 ] ())
  end
  else if Bytes.length m.Msg.payload = 6 && not t.parked && t.dev = None then begin
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"proxy" ~name:"register"
           ~attrs:[ "driver", t.name ] ());
    let mac = Bytes.copy m.Msg.payload in
    (* The register downcall carries the driver's queue count; the netdev
       gets that many TX queues, clamped by the rings the channel has. *)
    let tx_queues = min (max 1 (Msg.arg m 0)) (Uchan.num_queues t.chan) in
    let ops = make_ops t in
    let dev =
      match t.adopt with
      | Some dev ->
        (* Supervised restart: the netdev survived the previous driver's
           death; the fresh generation takes it over in place instead of
           registering a new one. *)
        Netdev.set_mac dev mac;
        Netdev.set_ops dev ops;
        if Netstack.find_netdev t.k.Kernel.net (Netdev.name dev) = None then
          Netstack.register_netdev t.k.Kernel.net dev;
        dev
      | None ->
        let dev = Netdev.create ~name:t.name ~mac ~ops ~tx_queues () in
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
  else if kind = Proxy_proto.down_irq_ack then begin
    (* arg 0 names the device queue whose vector to unmask; older
       single-queue drivers send no args, and Msg.arg defaults to 0. *)
    let q = uq t (Msg.arg m 0) in
    let n = t.frames_since_ack.(q) in
    if n > 0 then begin
      (* How many frames one interrupt covered — the NAPI coalescing
         factor.  Zero-frame acks (TX-only polls, the runtime's redundant
         post-handler ack) would only dilute the histogram. *)
      t.frames_since_ack.(q) <- 0;
      Sud_obs.Metrics.observe t.frames_per_poll n;
      if n >= napi_budget_hint then Sud_obs.Metrics.incr t.budget_exhausted.(q)
    end;
    Safe_pci.irq_ack ~queue:(Msg.arg m 0) t.grant;
    None
  end
  else if kind = Proxy_proto.down_printk then begin
    klogf t Klog.Info "%s: %s" t.name (Bytes.to_string m.Msg.payload);
    None
  end
  else begin
    (* Unknown downcalls from an untrusted driver are logged, not trusted. *)
    klogf t Klog.Warn "sud-net(%s): unexpected downcall %d" t.name kind;
    None
  end

let create k ~chan ~grant ~pool ~name ?(defensive_copy = true) ?(parked = false) ?adopt () =
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
      parked;
      pending_attach = None;
      ready = Sync.Waitq.create ();
      is_hung = false;
      quiescing = false;
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

let irq_sink t ~queue =
  if
    not
      (Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Kernel Uchan.Nonblock
         (Msg.make ~kind:Proxy_proto.up_interrupt ~args:[ queue ] ()))
  then
    (* Ring saturated with unserviced interrupts: the masking machinery in
       Safe_pci is already throttling; nothing more to do here. *)
    ()

let netdev t = t.dev

let wait_ready t ~timeout_ns =
  let deadline = Engine.now t.k.Kernel.eng + timeout_ns in
  let rec loop () =
    match t.dev with
    | Some dev -> Some dev
    | None ->
      let left = deadline - Engine.now t.k.Kernel.eng in
      if left <= 0 then None
      else
        match Sync.Waitq.wait_timeout t.k.Kernel.eng t.ready left with
        | Fiber.Interrupted -> None
        | Fiber.Normal | Fiber.Timeout -> loop ()
  in
  loop ()

let wait_registered t ~timeout_ns =
  let deadline = Engine.now t.k.Kernel.eng + timeout_ns in
  let registered () = t.dev <> None || t.pending_attach <> None in
  let rec loop () =
    if registered () then true
    else
      let left = deadline - Engine.now t.k.Kernel.eng in
      if left <= 0 then false
      else
        match Sync.Waitq.wait_timeout t.k.Kernel.eng t.ready left with
        | Fiber.Interrupted -> false
        | Fiber.Normal | Fiber.Timeout -> loop ()
  in
  loop ()

let hung t = t.is_hung

let quiesce t = t.quiescing <- true

(* A parked proxy must be adopted before it serves: unparking through
   resume alone would attach a standby the supervisor never swapped in. *)
let resume t = if not t.parked then t.quiescing <- false

let unregister t =
  match t.dev with
  | Some dev ->
    Netstack.unregister_netdev t.k.Kernel.net dev;
    t.dev <- None
  | None -> ()

(* ---- handoff / adopt: the generation-swap contract ---- *)

type Proxy_class.state += Net_state of { dev : Netdev.t option; up : bool }

let handoff t =
  Net_state
    { dev = t.dev;
      up = (match t.dev with Some d -> Netdev.is_up d | None -> false) }

let adopt t st =
  match st with
  | Net_state { dev; up = _ } ->
    if t.parked then begin
      (match t.pending_attach with
       | Some (mac, _txq) ->
         (* The surviving netdev keeps its identity (name, queue count,
            backlog); the standby's recorded registration supplies the
            fresh generation's MAC and ops. *)
         let target = match dev with Some _ as d -> d | None -> t.adopt in
         (match target with
          | Some d ->
            Netdev.set_mac d mac;
            Netdev.set_ops d (make_ops t);
            if Netstack.find_netdev t.k.Kernel.net (Netdev.name d) = None then
              Netstack.register_netdev t.k.Kernel.net d;
            t.dev <- Some d;
            ignore (Sync.Waitq.broadcast t.ready : int)
          | None ->
            klogf t Klog.Warn
              "sud-net(%s): adopt with no surviving netdev; awaiting fresh register" t.name)
       | None -> ());
      t.parked <- false;
      t.pending_attach <- None
    end
  | _ -> ()

let rx_validation_failures t = Sud_obs.Metrics.get t.rx_bad
let rx_checksum_failures t = Sud_obs.Metrics.get t.rx_csum_bad
let rx_pool_counters t = (Sud_obs.Metrics.get t.pool_hits, Sud_obs.Metrics.get t.pool_fresh)
let frames_per_poll t = t.frames_per_poll

let instance t =
  Proxy_class.Instance
    ( (module struct
        type nonrec t = t

        let class_name = "net"
        let chan t = t.chan
        let hung = hung
        let quiesce = quiesce
        let resume = resume
        let degrade = unregister

        (* Reattachment happens through the fresh driver's register
           downcall (possibly adopting the surviving netdev). *)
        let revive _ = ()
        let handoff = handoff
        let adopt = adopt
      end),
      t )
