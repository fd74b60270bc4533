(** The network stack: device registration, softirq receive processing,
    a firewall hook, UDP datagrams and a stream (TCP-lite) protocol.

    Receive path: drivers call [Netdev.netif_rx] from any context; frames
    land in a backlog and a softirq fiber does the real work — checksum
    verification (skipped when the SUD proxy already verified during its
    defensive copy), the firewall verdict, and socket delivery.  The
    stack is deliberately robust to driver misbehaviour: malformed
    frames, bad checksums and unexpected results are logged and dropped,
    never trusted (paper §3.1.1).

    The stream protocol is a simplified in-order TCP: MSS-sized segments,
    a fixed flow-control window with cumulative ACKs, SYN/FIN handshakes,
    no retransmission (the simulated medium does not lose frames).  It
    exists to drive the Figure 8 TCP_STREAM benchmark with realistic
    self-clocking against the driver's ring and the 1 Gb/s line rate. *)

type t

type verdict = Accept | Drop

val create :
  Engine.t -> Cpu.t -> Preempt.t -> Klog.t -> Process.table -> t

val register_netdev : t -> Netdev.t -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val unregister_netdev : t -> Netdev.t -> unit
val find_netdev : t -> string -> Netdev.t option
val netdevs : t -> Netdev.t list

val ifconfig_up : t -> Netdev.t -> (unit, string) result
(** Bring the interface up ([ndo_open]).  Must run in a fiber; with a SUD
    proxy underneath this is an interruptible synchronous upcall, so a
    hung driver leaves it abortable with Ctrl-C rather than wedged. *)

val ifconfig_down : t -> Netdev.t -> unit

val dev_xmit : t -> Netdev.t -> Skbuff.t -> [ `Sent | `Dropped ]
(** Queue one fully-formed frame on a device, with Linux-style TX flow
    control.  Blocks (bounded) while the queue is stopped; after a
    bounded number of fruitless rounds the frame is dropped and counted in
    the device's [tx_dropped] — a dead driver no longer parks senders
    forever.  The supervisor uses this directly to replay its recovery
    backlog. *)

val dev_ioctl : t -> Netdev.t -> cmd:int -> arg:int -> (int, string) result

val set_firewall : t -> (Skbuff.t -> verdict) option -> unit
val firewall_drops : t -> int

val backlog_drops : t -> int
val csum_drops : t -> int

val frame_checksum_ok : bytes -> bool
(** Transport checksum verification as a pure function over frame bytes.
    The SUD proxy runs this over its private defensive copy (the fused
    copy+checksum pass, paper §3.1.2) and sets [csum_verified], so the
    verdict is TOCTOU-safe and the stack does not checksum twice.  Frames
    too short for a checksummed transport header pass here — the
    per-protocol length checks at delivery reject them. *)

(** {1 UDP} *)

type udp_socket

val udp_bind : t -> Netdev.t -> port:int -> udp_socket
(** Raises [Invalid_argument] if the port is taken on that device. *)

val udp_close : t -> udp_socket -> unit

val udp_sendto :
  t -> udp_socket -> dst:bytes -> dst_port:int -> bytes -> [ `Sent | `Dropped ]
(** Blocking (fiber) send; [`Dropped] when the device queue stayed full. *)

val udp_recv : t -> udp_socket -> (bytes * (bytes * int)) option
(** Blocks until a datagram arrives; [Some (payload, (src_mac, src_port))],
    or [None] if interrupted. *)

val udp_pending : udp_socket -> int

(** {1 Streams} *)

type stream

val stream_listen : t -> Netdev.t -> port:int -> stream
(** Passive open; blocks until a peer connects. *)

val stream_connect :
  t -> Netdev.t -> dst:bytes -> dst_port:int -> src_port:int -> (stream, string) result
(** Active open; blocks for the handshake (5 ms timeout). *)

val stream_send : t -> stream -> bytes -> (unit, string) result
(** Blocks while the flow-control window is full. *)

val stream_recv : t -> stream -> bytes option
(** In-order data; [None] once the peer has closed and the buffer is
    drained. *)

val stream_close : t -> stream -> unit
