type verdict = Accept | Drop

let mss = 1448
let stream_window = 131072
let backlog_capacity = 1024
let socket_buffer = 512

(* Wire format, after the 14-byte Ethernet header (ethertype 0x0800):
   UDP   : [1][sport:2][dport:2][len:2][csum:2][payload]
   stream: [2][sport:2][dport:2][seq:4][ack:4][flags:1][len:2][csum:2][payload] *)
let proto_udp = 1
let proto_stream = 2
let eth_hdr = 14
let udp_hdr = 9
let stream_hdr = 18

let flag_syn = 1
let flag_ack = 2
let flag_fin = 4
let flag_data = 8

type udp_socket = {
  udev : Netdev.t;
  uport : int;
  urx : (bytes * (bytes * int)) Queue.t;
  uwait : Sync.Waitq.t;
  mutable uclosed : bool;
}

type stream_state = Listen | Syn_sent | Established | Closed

type stream = {
  sdev : Netdev.t;
  lport : int;
  mutable rmac : bytes;
  mutable rport : int;
  mutable state : stream_state;
  mutable snd_next : int;
  mutable snd_una : int;
  mutable rcv_next : int;
  rx_data : bytes Queue.t;
  rx_wait : Sync.Waitq.t;
  snd_wait : Sync.Waitq.t;
  conn_wait : Sync.Waitq.t;
  mutable segs_unacked : int;
  mutable fin_received : bool;
}

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  preempt : Preempt.t;
  klog : Klog.t;
  procs : Process.table;
  mutable devs : Netdev.t list;
  (* One softirq backlog + service fiber per sim CPU (RPS): frames are
     steered by the RSS flow hash, so one flow's frames stay in order on
     one backlog while distinct flows spread over the cores. *)
  backlogs : (Netdev.t * Skbuff.t) Sync.Mailbox.t array;
  udp_socks : (string * int, udp_socket) Hashtbl.t;
  streams : (string * int, stream) Hashtbl.t;
  mutable firewall : (Skbuff.t -> verdict) option;
  mutable fw_drops : int;
  mutable bl_drops : int;
  mutable cs_drops : int;
}

let model t = Cpu.cost_model t.cpu

let consume t ns = Cpu.consume_cell (Process.cell (Process.current t.procs)) ns

(* Charge the cost of having been woken from sleep — the ~4us the paper
   blames for UDP_RR's 2x CPU overhead shows up through here.  Waking a
   task that only just blocked (same scheduling instant) is a cheap
   runqueue operation, so short "sleeps" are free. *)
let wakeup_epsilon_ns = 2_000

let charge_wakeup_since t ~since =
  if Engine.now t.eng - since > wakeup_epsilon_ns then
    consume t (model t).Cost_model.wakeup_ns

(* ---- transmit ---- *)

let build_frame ~dst ~src ~payload =
  let b = Bytes.create (eth_hdr + Bytes.length payload) in
  Bytes.blit dst 0 b 0 6;
  Bytes.blit src 0 b 6 6;
  Bytes.set_uint16_be b 12 0x0800;
  Bytes.blit payload 0 b eth_hdr (Bytes.length payload);
  b

(* Blocking xmit with Linux-style queue flow control.  Retries are
   bounded: a queue that stays stopped — a dead or wedged driver never
   waking it — used to park the sender in a silent infinite retry loop.
   Now the packet is dropped and counted in the device's [tx_dropped]
   after [tx_retry_limit] rounds.
   The drop path deliberately charges no wakeup: a sender whose packet
   went nowhere is not billed the scheduling latency of a delivery. *)
let tx_retry_limit = 64

let dev_xmit t dev skb =
  let drop () =
    let stats = Netdev.stats dev in
    stats.Netdev.tx_dropped <- stats.Netdev.tx_dropped + 1;
    `Dropped
  in
  (* RSS on egress: the flow hash picks the queue, so one flow's frames
     stay ordered on one queue while flows spread over the queues. *)
  let queue = Netdev.select_queue dev skb in
  let rec go ~retries ~slept =
    if Netdev.subqueue_stopped dev ~queue then begin
      Preempt.assert_may_sleep t.preempt "dev_xmit";
      if retries >= tx_retry_limit then drop ()
      else begin
        let since = Engine.now t.eng in
        match
          Sync.Waitq.wait_timeout t.eng (Netdev.tx_subqueue_waitq dev ~queue) 10_000_000
        with
        | Fiber.Interrupted -> drop ()
        | Fiber.Normal ->
          go ~retries:(retries + 1)
            ~slept:(match slept with None -> Some since | s -> s)
        | Fiber.Timeout -> go ~retries:(retries + 1) ~slept
      end
    end
    else begin
      let stats = Netdev.stats dev in
      (* HARD_TX_LOCK, per queue: one queue's transmit path is not
         reentrant, but sibling queues transmit concurrently. *)
      let r =
        Sync.Mutex.with_lock (Netdev.tx_subqueue_lock dev ~queue) (fun () ->
            (Netdev.ops dev).Netdev.ndo_start_xmit ~queue skb)
      in
      match r with
      | Netdev.Xmit_ok ->
        (match slept with Some since -> charge_wakeup_since t ~since | None -> ());
        stats.Netdev.tx_packets <- stats.Netdev.tx_packets + 1;
        stats.Netdev.tx_bytes <- stats.Netdev.tx_bytes + Skbuff.length skb;
        `Sent
      | Netdev.Xmit_busy ->
        if retries >= tx_retry_limit then drop ()
        else begin
          Netdev.netif_stop_subqueue dev ~queue;
          go ~retries:(retries + 1) ~slept
        end
    end
  in
  go ~retries:0 ~slept:None

(* ---- receive processing (softirq) ---- *)

let udp_deliver t dev ~src_mac payload =
  if Bytes.length payload >= udp_hdr then begin
    let sport = Bytes.get_uint16_be payload 1 in
    let dport = Bytes.get_uint16_be payload 3 in
    let len = Bytes.get_uint16_be payload 5 in
    if udp_hdr + len <= Bytes.length payload then begin
      match Hashtbl.find_opt t.udp_socks (Netdev.name dev, dport) with
      | Some sock when not sock.uclosed ->
        if Queue.length sock.urx < socket_buffer then begin
          (* Copy out of the skb at delivery time: this read is the second
             access a TOCTOU-mutating driver hopes to poison. *)
          let data = Bytes.sub payload udp_hdr len in
          Queue.push (data, (src_mac, sport)) sock.urx;
          ignore (Sync.Waitq.signal sock.uwait : bool)
        end
        else begin
          let stats = Netdev.stats dev in
          stats.Netdev.rx_dropped <- stats.Netdev.rx_dropped + 1
        end
      | Some _ | None ->
        let stats = Netdev.stats dev in
        stats.Netdev.rx_dropped <- stats.Netdev.rx_dropped + 1
    end
  end

let stream_send_segment t st ~flags ~payload =
  let p = Bytes.create (stream_hdr + Bytes.length payload) in
  Bytes.set p 0 (Char.chr proto_stream);
  Bytes.set_uint16_be p 1 st.lport;
  Bytes.set_uint16_be p 3 st.rport;
  Bytes.set_int32_be p 5 (Int32.of_int st.snd_next);
  Bytes.set_int32_be p 9 (Int32.of_int st.rcv_next);
  Bytes.set p 13 (Char.chr flags);
  Bytes.set_uint16_be p 14 (Bytes.length payload);
  Bytes.set_uint16_be p 16 (Skbuff.checksum payload);
  Bytes.blit payload 0 p stream_hdr (Bytes.length payload);
  let frame = build_frame ~dst:st.rmac ~src:(Netdev.mac st.sdev) ~payload:p in
  consume t (model t).Cost_model.netstack_tx_ns;
  ignore (dev_xmit t st.sdev (Skbuff.of_bytes frame) : [ `Sent | `Dropped ])

let stream_deliver t dev ~src_mac payload =
  if Bytes.length payload >= stream_hdr then begin
    let sport = Bytes.get_uint16_be payload 1 in
    let dport = Bytes.get_uint16_be payload 3 in
    let seq = Int32.to_int (Bytes.get_int32_be payload 5) in
    let ack = Int32.to_int (Bytes.get_int32_be payload 9) in
    let flags = Char.code (Bytes.get payload 13) in
    let len = Bytes.get_uint16_be payload 14 in
    match Hashtbl.find_opt t.streams (Netdev.name dev, dport) with
    | None -> ()
    | Some st ->
      if flags land flag_syn <> 0 && flags land flag_ack = 0 && st.state = Listen then begin
        (* passive open *)
        st.rmac <- Bytes.copy src_mac;
        st.rport <- sport;
        st.rcv_next <- seq + 1;
        st.state <- Established;
        stream_send_segment t st ~flags:(flag_syn lor flag_ack) ~payload:Bytes.empty;
        ignore (Sync.Waitq.broadcast st.conn_wait : int)
      end
      else if flags land flag_syn <> 0 && flags land flag_ack <> 0 && st.state = Syn_sent then begin
        st.rcv_next <- seq + 1;
        st.snd_una <- max st.snd_una ack;
        st.state <- Established;
        stream_send_segment t st ~flags:flag_ack ~payload:Bytes.empty;
        ignore (Sync.Waitq.broadcast st.conn_wait : int)
      end
      else begin
        if flags land flag_ack <> 0 && ack > st.snd_una then begin
          st.snd_una <- ack;
          ignore (Sync.Waitq.broadcast st.snd_wait : int)
        end;
        if flags land flag_data <> 0 && len > 0 && stream_hdr + len <= Bytes.length payload then begin
          if seq = st.rcv_next then begin
            let data = Bytes.sub payload stream_hdr len in
            st.rcv_next <- st.rcv_next + len;
            Queue.push data st.rx_data;
            ignore (Sync.Waitq.signal st.rx_wait : bool);
            st.segs_unacked <- st.segs_unacked + 1;
            if st.segs_unacked >= 2 then begin
              st.segs_unacked <- 0;
              stream_send_segment t st ~flags:flag_ack ~payload:Bytes.empty
            end
          end
          (* out-of-order: the simulated medium is FIFO, so this only
             happens with a misbehaving driver — drop, do not trust. *)
        end;
        if flags land flag_fin <> 0 then begin
          st.fin_received <- true;
          st.segs_unacked <- 0;
          st.rcv_next <- st.rcv_next + 1;
          stream_send_segment t st ~flags:flag_ack ~payload:Bytes.empty;
          ignore (Sync.Waitq.broadcast st.rx_wait : int)
        end
      end
  end

(* Transport checksum verification as a pure function over frame bytes,
   shared between the stack's own verify pass below and the SUD proxy's
   fused defensive-copy+checksum pass (which runs it on the private copy
   and sets [csum_verified] so the stack doesn't pay twice).  Frames too
   short to carry a checksummed transport header are "ok" here — the
   per-protocol length checks at delivery reject them. *)
let frame_checksum_ok frame =
  let n = Bytes.length frame in
  if n < eth_hdr + 1 then true
  else begin
    let payload_len = n - eth_hdr in
    let proto = Char.code (Bytes.get frame eth_hdr) in
    if proto = proto_udp && payload_len >= udp_hdr then begin
      let len = Bytes.get_uint16_be frame (eth_hdr + 5) in
      let stored = Bytes.get_uint16_be frame (eth_hdr + 7) in
      udp_hdr + len > payload_len
      || stored = Skbuff.checksum_sub_words frame ~off:(eth_hdr + udp_hdr) ~len
    end
    else if proto = proto_stream && payload_len >= stream_hdr then begin
      let len = Bytes.get_uint16_be frame (eth_hdr + 14) in
      let stored = Bytes.get_uint16_be frame (eth_hdr + 16) in
      stream_hdr + len > payload_len
      || stored = Skbuff.checksum_sub_words frame ~off:(eth_hdr + stream_hdr) ~len
    end
    else true
  end

let process_frame t dev skb =
  let m = model t in
  consume t m.Cost_model.netstack_rx_ns;
  let frame = skb.Skbuff.data in
  if Bytes.length frame >= eth_hdr + 1 then begin
    let dst = Bytes.sub frame 0 6 in
    if Skbuff.Mac.equal dst (Netdev.mac dev) || Skbuff.Mac.equal dst Skbuff.Mac.broadcast then begin
      let payload_len = Bytes.length frame - eth_hdr in
      let proto = Char.code (Bytes.get frame eth_hdr) in
      (* Checksum verification, unless the SUD proxy already verified the
         frame during its fused defensive-copy+checksum pass. *)
      let csum_ok =
        if skb.Skbuff.csum_verified then true
        else begin
          consume t (Cost_model.checksum_cost m ~bytes:payload_len);
          frame_checksum_ok frame
        end
      in
      if not csum_ok then begin
        t.cs_drops <- t.cs_drops + 1;
        Klog.printk t.klog Klog.Warn "net: %s: bad checksum, dropping frame" (Netdev.name dev)
      end
      else begin
        let fw_verdict = match t.firewall with None -> Accept | Some fw -> fw skb in
        match fw_verdict with
        | Drop ->
          t.fw_drops <- t.fw_drops + 1
        | Accept ->
          (* Protocol processing cost after the verdict; a driver that can
             still write this skb's buffer gets its TOCTOU window here. *)
          consume t (Cost_model.copy_cost m ~bytes:payload_len);
          (* Data living in driver-shared memory is re-read here, after the
             firewall verdict — the second access a TOCTOU attack poisons.
             A proxy doing the defensive copy leaves [refresh] unset. *)
          (match skb.Skbuff.refresh with
           | Some fetch ->
             let fresh = fetch () in
             if Bytes.length fresh = Bytes.length skb.Skbuff.data then
               skb.Skbuff.data <- fresh
           | None -> ());
          let frame = skb.Skbuff.data in
          let stats = Netdev.stats dev in
          stats.Netdev.rx_packets <- stats.Netdev.rx_packets + 1;
          stats.Netdev.rx_bytes <- stats.Netdev.rx_bytes + Bytes.length frame;
          let payload = Bytes.sub frame eth_hdr payload_len in
          let src_mac = Bytes.sub frame 6 6 in
          if proto = proto_udp then udp_deliver t dev ~src_mac payload
          else if proto = proto_stream then stream_deliver t dev ~src_mac payload
          else
            Klog.printk t.klog Klog.Info "net: %s: unknown protocol %d" (Netdev.name dev) proto
      end
    end
  end
  else Klog.printk t.klog Klog.Warn "net: %s: runt frame from driver" (Netdev.name dev)

let create eng cpu preempt klog procs =
  let t =
    { eng;
      cpu;
      preempt;
      klog;
      procs;
      devs = [];
      backlogs =
        Array.init (Cpu.cores cpu) (fun _ ->
            Sync.Mailbox.create ~capacity:backlog_capacity);
      udp_socks = Hashtbl.create 16;
      streams = Hashtbl.create 16;
      firewall = None;
      fw_drops = 0;
      bl_drops = 0;
      cs_drops = 0 }
  in
  let kernel = Process.kernel_process procs in
  Array.iteri
    (fun i backlog ->
       ignore
         (Process.spawn_fiber kernel ~name:(Printf.sprintf "net-softirq:%d" i) (fun () ->
              let handle (dev, skb) =
                process_frame t dev skb;
                (* Delivery copied what it needed; the (possibly pooled)
                   defensive-copy buffer goes back to its owner. *)
                Skbuff.recycle skb
              in
              (* Drain the backlog without sleeping between frames: a burst
                 pays softirq entry once, then only per-frame costs. *)
              let rec drain () =
                match Sync.Mailbox.try_recv backlog with
                | None -> ()
                | Some item -> handle item; drain ()
              in
              let rec loop () =
                match Sync.Mailbox.recv backlog with
                | `Interrupted -> loop ()
                | `Ok item ->
                  (* Waking into softirq context has a fixed cost (scheduling
                     the ksoftirqd-style service, cold caches, local_bh
                     bookkeeping).  Frames that arrive while the burst is
                     still draining share it — this is the stack-side saving
                     that NAPI-style interrupt coalescing exists to buy. *)
                  consume t (model t).Cost_model.softirq_entry_ns;
                  handle item;
                  drain ();
                  loop ()
              in
              loop ())
          : Fiber.t))
    t.backlogs;
  t

let register_netdev t dev =
  if List.exists (fun d -> Netdev.name d = Netdev.name dev) t.devs then
    invalid_arg ("Netstack.register_netdev: duplicate " ^ Netdev.name dev);
  t.devs <- dev :: t.devs;
  Netdev.set_stack_rx dev (fun skb ->
      let cpu = Rss.queue_for ~queues:(Array.length t.backlogs) skb.Skbuff.data in
      if not (Sync.Mailbox.try_send t.backlogs.(cpu) (dev, skb)) then begin
        t.bl_drops <- t.bl_drops + 1;
        let stats = Netdev.stats dev in
        stats.Netdev.rx_dropped <- stats.Netdev.rx_dropped + 1;
        Skbuff.recycle skb
      end);
  Klog.printk t.klog Klog.Info "net: registered %s" (Netdev.name dev)

let unregister_netdev t dev =
  t.devs <- List.filter (fun d -> d != dev) t.devs;
  Netdev.set_stack_rx dev (fun _ -> ());
  Klog.printk t.klog Klog.Info "net: unregistered %s" (Netdev.name dev)

let find_netdev t name = List.find_opt (fun d -> Netdev.name d = name) t.devs
let netdevs t = List.rev t.devs

let ifconfig_up t dev =
  Preempt.assert_may_sleep t.preempt "ifconfig_up";
  match (Netdev.ops dev).Netdev.ndo_open () with
  | Ok () ->
    Netdev.set_up dev true;
    Klog.printk t.klog Klog.Info "net: %s up" (Netdev.name dev);
    Ok ()
  | Error e ->
    Klog.printk t.klog Klog.Warn "net: %s failed to open: %s" (Netdev.name dev) e;
    Error e

let ifconfig_down t dev =
  (Netdev.ops dev).Netdev.ndo_stop ();
  Netdev.set_up dev false;
  Klog.printk t.klog Klog.Info "net: %s down" (Netdev.name dev)

let dev_ioctl t dev ~cmd ~arg =
  Preempt.assert_may_sleep t.preempt "dev_ioctl";
  (Netdev.ops dev).Netdev.ndo_do_ioctl ~cmd ~arg

let set_firewall t fw = t.firewall <- fw
let firewall_drops t = t.fw_drops
let backlog_drops t = t.bl_drops
let csum_drops t = t.cs_drops

(* ---- UDP API ---- *)

let udp_bind t dev ~port =
  let key = (Netdev.name dev, port) in
  if Hashtbl.mem t.udp_socks key then invalid_arg "udp_bind: port in use";
  let sock = { udev = dev; uport = port; urx = Queue.create (); uwait = Sync.Waitq.create (); uclosed = false } in
  Hashtbl.add t.udp_socks key sock;
  sock

let udp_close t sock =
  sock.uclosed <- true;
  Hashtbl.remove t.udp_socks (Netdev.name sock.udev, sock.uport)

let udp_sendto t sock ~dst ~dst_port data =
  let m = model t in
  consume t m.Cost_model.syscall_ns;
  consume t m.Cost_model.netstack_tx_ns;
  consume t (Cost_model.checksum_cost m ~bytes:(Bytes.length data));
  let p = Bytes.create (udp_hdr + Bytes.length data) in
  Bytes.set p 0 (Char.chr proto_udp);
  Bytes.set_uint16_be p 1 sock.uport;
  Bytes.set_uint16_be p 3 dst_port;
  Bytes.set_uint16_be p 5 (Bytes.length data);
  Bytes.set_uint16_be p 7 (Skbuff.checksum data);
  Bytes.blit data 0 p udp_hdr (Bytes.length data);
  let frame = build_frame ~dst ~src:(Netdev.mac sock.udev) ~payload:p in
  dev_xmit t sock.udev (Skbuff.of_bytes frame)

let rec udp_recv_inner t sock =
  match Queue.take_opt sock.urx with
  | Some x -> Some x
  | None ->
    let since = Engine.now t.eng in
    (match Sync.Waitq.wait sock.uwait with
     | Fiber.Interrupted -> None
     | Fiber.Normal | Fiber.Timeout ->
       charge_wakeup_since t ~since;
       udp_recv_inner t sock)

let udp_recv t sock =
  consume t (model t).Cost_model.syscall_ns;
  udp_recv_inner t sock

let udp_pending sock = Queue.length sock.urx

(* ---- stream API ---- *)

let fresh_stream dev ~port =
  { sdev = dev;
    lport = port;
    rmac = Bytes.make 6 '\000';
    rport = 0;
    state = Listen;
    snd_next = 0;
    snd_una = 0;
    rcv_next = 0;
    rx_data = Queue.create ();
    rx_wait = Sync.Waitq.create ();
    snd_wait = Sync.Waitq.create ();
    conn_wait = Sync.Waitq.create ();
    segs_unacked = 0;
    fin_received = false }

let stream_listen t dev ~port =
  let key = (Netdev.name dev, port) in
  if Hashtbl.mem t.streams key then invalid_arg "stream_listen: port in use";
  let st = fresh_stream dev ~port in
  Hashtbl.add t.streams key st;
  while st.state <> Established do
    ignore (Sync.Waitq.wait st.conn_wait : Fiber.wake)
  done;
  st

let stream_connect t dev ~dst ~dst_port ~src_port =
  let key = (Netdev.name dev, src_port) in
  if Hashtbl.mem t.streams key then invalid_arg "stream_connect: port in use";
  let st = fresh_stream dev ~port:src_port in
  st.rmac <- Bytes.copy dst;
  st.rport <- dst_port;
  st.state <- Syn_sent;
  Hashtbl.add t.streams key st;
  stream_send_segment t st ~flags:flag_syn ~payload:Bytes.empty;
  st.snd_next <- st.snd_next + 1;
  let r =
    match
      Sync.Waitq.await t.eng st.conn_wait ~timeout_ns:5_000_000 (fun () ->
          st.state = Established)
    with
    | Fiber.Normal -> Ok st
    | Fiber.Timeout -> Error "connect: timed out"
    | Fiber.Interrupted -> Error "connect: interrupted"
  in
  (match r with Error _ -> Hashtbl.remove t.streams key | Ok _ -> ());
  r

let stream_send t st data =
  if st.state <> Established then Error "stream_send: not connected"
  else begin
    let n = Bytes.length data in
    let off = ref 0 in
    let err = ref None in
    while !off < n && !err = None do
      let chunk = min mss (n - !off) in
      (* Flow control: block while a full window is in flight. *)
      while st.snd_next - st.snd_una + chunk > stream_window && st.state = Established do
        Preempt.assert_may_sleep t.preempt "stream_send";
        let since = Engine.now t.eng in
        (match Sync.Waitq.wait st.snd_wait with
         | Fiber.Interrupted -> err := Some "interrupted"
         | Fiber.Normal | Fiber.Timeout -> charge_wakeup_since t ~since)
      done;
      if !err = None then begin
        stream_send_segment t st ~flags:(flag_data lor flag_ack)
          ~payload:(Bytes.sub data !off chunk);
        st.snd_next <- st.snd_next + chunk;
        off := !off + chunk
      end
    done;
    match !err with None -> Ok () | Some e -> Error e
  end

let rec stream_recv t st =
  match Queue.take_opt st.rx_data with
  | Some x -> Some x
  | None ->
    if st.fin_received || st.state = Closed then None
    else begin
      let since = Engine.now t.eng in
      match Sync.Waitq.wait st.rx_wait with
      | Fiber.Interrupted -> None
      | Fiber.Normal | Fiber.Timeout ->
        charge_wakeup_since t ~since;
        stream_recv t st
    end

let stream_close t st =
  if st.state = Established then begin
    stream_send_segment t st ~flags:(flag_fin lor flag_ack) ~payload:Bytes.empty;
    st.snd_next <- st.snd_next + 1
  end;
  st.state <- Closed;
  Hashtbl.remove t.streams (Netdev.name st.sdev, st.lport);
  ignore (Sync.Waitq.broadcast st.rx_wait : int)
