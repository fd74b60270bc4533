type xmit_result = Xmit_ok | Xmit_busy

type ops = {
  ndo_open : unit -> (unit, string) result;
  ndo_stop : unit -> unit;
  ndo_start_xmit : queue:int -> Skbuff.t -> xmit_result;
  ndo_do_ioctl : cmd:int -> arg:int -> (int, string) result;
}

let ioctl_mii_status = 0x8948
let ioctl_link_speed = 0x8949

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable tx_dropped : int;
  mutable rx_dropped : int;
}

type backlog_stats = {
  bl_offered : int;
  bl_queued : int;
  bl_dropped : int;
  bl_replayed : int;
}

(* Per-TX-queue state: flow control, the HARD_TX_LOCK, and the recovery
   backlog are all per queue, so queues never serialize on each other. *)
type txq = {
  tq_waitq : Sync.Waitq.t;
  tq_lock : Sync.Mutex.t;
  mutable tq_stopped : bool;
  tq_backlog : Skbuff.t Queue.t;
  tqm_offered : Sud_obs.Metrics.counter;
  tqm_dropped : Sud_obs.Metrics.counter;
  tqm_replayed : Sud_obs.Metrics.counter;
}

type t = {
  dname : string;
  mutable dmac : bytes;
  mutable dops : ops;
  dstats : stats;
  mutable up : bool;
  mutable carrier_on : bool;
  txqs : txq array;
  mutable stack_rx : (Skbuff.t -> unit) option;
  mutable backlog_limit : int;
  nm : metrics;
}
and metrics = {
  nm_bl_offered : Sud_obs.Metrics.counter;
  nm_bl_dropped : Sud_obs.Metrics.counter;
  nm_bl_replayed : Sud_obs.Metrics.counter;
  nm_bl_queued : Sud_obs.Metrics.gauge;
}

let create ~name ~mac ~ops ?(tx_queues = 1) () =
  if Bytes.length mac <> 6 then invalid_arg "Netdev.create: MAC must be 6 bytes";
  if tx_queues < 1 then invalid_arg "Netdev.create: need at least one TX queue";
  let txqs =
    Array.init tx_queues (fun qi ->
        let labels = [ "dev", name; "queue", string_of_int qi ] in
        let c n = Sud_obs.Metrics.counter ~labels ~subsystem:"netdev" ~name:n () in
        { tq_waitq = Sync.Waitq.create ();
          tq_lock = Sync.Mutex.create ();
          tq_stopped = false;
          tq_backlog = Queue.create ();
          tqm_offered = c "queue_backlog_offered";
          tqm_dropped = c "queue_backlog_dropped";
          tqm_replayed = c "queue_backlog_replayed" })
  in
  { dname = name;
    dmac = Bytes.copy mac;
    dops = ops;
    dstats = { tx_packets = 0; tx_bytes = 0; rx_packets = 0; rx_bytes = 0; tx_dropped = 0; rx_dropped = 0 };
    up = false;
    carrier_on = false;
    txqs;
    stack_rx = None;
    backlog_limit = 0;
    nm =
      (let labels = [ "dev", name ] in
       let c n = Sud_obs.Metrics.counter ~labels ~subsystem:"netdev" ~name:n () in
       { nm_bl_offered = c "backlog_offered";
         nm_bl_dropped = c "backlog_dropped";
         nm_bl_replayed = c "backlog_replayed";
         nm_bl_queued =
           Sud_obs.Metrics.gauge ~labels ~subsystem:"netdev" ~name:"backlog_queued"
             (fun () ->
                Array.fold_left (fun acc q -> acc + Queue.length q.tq_backlog) 0 txqs) }) }

let name t = t.dname
let mac t = t.dmac
let set_mac t m = t.dmac <- Bytes.copy m
let ops t = t.dops
let set_ops t ops = t.dops <- ops
let stats t = t.dstats

let is_up t = t.up
let set_up t v = t.up <- v

let carrier t = t.carrier_on
let netif_carrier_on t = t.carrier_on <- true
let netif_carrier_off t = t.carrier_on <- false

let tx_queues t = Array.length t.txqs

let txq_of t queue =
  if queue < 0 || queue >= Array.length t.txqs then
    invalid_arg
      (Printf.sprintf "Netdev(%s): no TX queue %d (device has %d)" t.dname queue
         (Array.length t.txqs));
  t.txqs.(queue)

(* RSS on the egress side: the same flow hash the device uses for RX, so
   one flow stays on one queue end to end and keeps its packet order. *)
let select_queue t skb =
  Rss.queue_for ~queues:(Array.length t.txqs) skb.Skbuff.data

let subqueue_stopped t ~queue = (txq_of t queue).tq_stopped
let netif_stop_subqueue t ~queue = (txq_of t queue).tq_stopped <- true

let netif_wake_subqueue t ~queue =
  let q = txq_of t queue in
  q.tq_stopped <- false;
  ignore (Sync.Waitq.broadcast q.tq_waitq : int)

let netif_tx_stop_all_queues t =
  Array.iter (fun q -> q.tq_stopped <- true) t.txqs

let netif_tx_wake_all_queues t =
  Array.iter
    (fun q ->
       q.tq_stopped <- false;
       ignore (Sync.Waitq.broadcast q.tq_waitq : int))
    t.txqs

let tx_subqueue_waitq t ~queue = (txq_of t queue).tq_waitq
let tx_subqueue_lock t ~queue = (txq_of t queue).tq_lock

(* ---- recovery backlog (per queue) ---- *)

let backlog_push t ~queue ~limit skb =
  let q = txq_of t queue in
  t.backlog_limit <- limit;
  Sud_obs.Metrics.incr t.nm.nm_bl_offered;
  Sud_obs.Metrics.incr q.tqm_offered;
  if Queue.length q.tq_backlog < limit then Queue.push skb q.tq_backlog
  else begin
    Sud_obs.Metrics.incr t.nm.nm_bl_dropped;
    Sud_obs.Metrics.incr q.tqm_dropped;
    t.dstats.tx_dropped <- t.dstats.tx_dropped + 1
  end;
  (* Always [Xmit_ok]: the frame was accepted (or accounted as dropped);
     returning busy would just park senders on a queue nobody will wake
     until the fresh driver arrives. *)
  Xmit_ok

let backlog_pop t ~queue =
  let q = txq_of t queue in
  match Queue.take_opt q.tq_backlog with
  | None -> None
  | Some skb ->
    Sud_obs.Metrics.incr t.nm.nm_bl_replayed;
    Sud_obs.Metrics.incr q.tqm_replayed;
    Some skb

let backlog_flush_drop t =
  let n =
    Array.fold_left
      (fun acc q ->
         let n = Queue.length q.tq_backlog in
         Queue.clear q.tq_backlog;
         Sud_obs.Metrics.add q.tqm_dropped n;
         acc + n)
      0 t.txqs
  in
  Sud_obs.Metrics.add t.nm.nm_bl_dropped n;
  t.dstats.tx_dropped <- t.dstats.tx_dropped + n;
  n

let metrics t = t.nm

let netif_rx t skb =
  match t.stack_rx with
  | Some rx -> rx skb
  | None -> t.dstats.rx_dropped <- t.dstats.rx_dropped + 1

let set_stack_rx t rx = t.stack_rx <- Some rx
