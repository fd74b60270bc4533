(** Network device objects — the kernel side of the paper's Figure 2 API.

    A driver (in-kernel or a SUD proxy standing in for a user-space one)
    registers a [Netdev.t] carrying its callbacks; the stack calls
    [ndo_start_xmit] to send and the driver calls {!netif_rx} to deliver.
    TX flow control mirrors Linux: the driver stops a queue when its
    ring is full and wakes it from the TX-completion interrupt.

    {b Multiqueue}: a device carries [tx_queues] independent TX queues
    (flow control, HARD_TX_LOCK and recovery backlog are all per queue);
    {!select_queue} applies the same {!Rss} flow hash the device model
    uses on RX, so a flow stays on one queue end to end and keeps its
    packet order. *)

type xmit_result = Xmit_ok | Xmit_busy

type ops = {
  ndo_open : unit -> (unit, string) result;
  ndo_stop : unit -> unit;
  ndo_start_xmit : queue:int -> Skbuff.t -> xmit_result;
  ndo_do_ioctl : cmd:int -> arg:int -> (int, string) result;
}

(** ioctl commands, SIOCGMIIREG-style *)

val ioctl_mii_status : int
val ioctl_link_speed : int

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable tx_dropped : int;
  mutable rx_dropped : int;
}

type t

val create : name:string -> mac:bytes -> ops:ops -> ?tx_queues:int -> unit -> t
(** [tx_queues] defaults to 1. *)

val name : t -> string
val mac : t -> bytes
val set_mac : t -> bytes -> unit
val ops : t -> ops

val set_ops : t -> ops -> unit
(** Swap the driver callbacks.  Used by the supervisor to keep one netdev
    alive across driver generations: during recovery the ops point at the
    backlog, then at the fresh proxy once it registers. *)

val stats : t -> stats

val is_up : t -> bool
val set_up : t -> bool -> unit

val carrier : t -> bool
val netif_carrier_on : t -> unit
val netif_carrier_off : t -> unit

(** {1 Per-queue TX flow control} *)

val tx_queues : t -> int

val select_queue : t -> Skbuff.t -> int
(** The egress RSS hash: stable per flow, [0] on single-queue devices. *)

val subqueue_stopped : t -> queue:int -> bool
val netif_stop_subqueue : t -> queue:int -> unit
val netif_wake_subqueue : t -> queue:int -> unit
val netif_tx_wake_all_queues : t -> unit

val tx_subqueue_waitq : t -> queue:int -> Sync.Waitq.t
(** Fibers blocked on that stopped queue; woken by
    {!netif_wake_subqueue}. *)

val tx_subqueue_lock : t -> queue:int -> Sync.Mutex.t
(** The per-queue HARD_TX_LOCK: serializes [ndo_start_xmit] on one queue
    — driver transmit paths are not reentrant per queue, but distinct
    queues run concurrently. *)

(** {1 Recovery backlog}

    While a supervised driver is down, its netdev degrades instead of
    vanishing: outbound frames are parked in a bounded per-queue FIFO
    and replayed to the fresh driver in per-queue order — combined with
    RSS queue selection that preserves per-flow packet order.
    Invariant: [offered = queued + dropped + replayed] at all times,
    both per queue and summed. *)

type backlog_stats = {
  bl_offered : int;   (** frames handed to the backlog since creation *)
  bl_queued : int;    (** currently parked *)
  bl_dropped : int;   (** rejected because the FIFO was full (or flushed) *)
  bl_replayed : int;  (** handed back for retransmission after recovery *)
}

val backlog_push : t -> queue:int -> limit:int -> Skbuff.t -> xmit_result
(** Park one frame on [queue]'s backlog (dropping and counting it if
    [limit] frames are already queued there).  Always returns
    [Xmit_ok]. *)

val backlog_pop : t -> queue:int -> Skbuff.t option
(** Pop [queue]'s oldest parked frame for replay, counting it as
    replayed. *)

val backlog_flush_drop : t -> int
(** Drop everything still parked on every queue (quarantine path);
    returns the count. *)

type metrics = {
  nm_bl_offered : Sud_obs.Metrics.counter;
  nm_bl_dropped : Sud_obs.Metrics.counter;
  nm_bl_replayed : Sud_obs.Metrics.counter;
  nm_bl_queued : Sud_obs.Metrics.gauge;   (** reads live queue lengths *)
}
(** Backlog accounting lives in the {!Sud_obs.Metrics} registry under
    subsystem ["netdev"]: device-level counters labelled [("dev", name)]
    (this record), plus per-queue [queue_backlog_*] counters additionally
    labelled [("queue", i)]. *)

val metrics : t -> metrics

val netif_rx : t -> Skbuff.t -> unit
(** Hand a received frame to the stack (non-blocking; callable from atomic
    context).  Frames arriving before the device is registered are
    dropped. *)

val set_stack_rx : t -> (Skbuff.t -> unit) -> unit
(** Installed by the net stack at registration. *)
