(** The Ethernet proxy driver (paper §3.1; 300 lines in Figure 5).

    Registers a [Netdev.t] with the kernel on behalf of a user-space
    driver and translates between the two worlds:

    - kernel callbacks become upcalls — packet transmission is an
      asynchronous upcall carrying a shared-buffer id (zero further
      copies), ioctls are synchronous {e interruptible} upcalls;
    - driver downcalls ([netif_rx], carrier changes, tx-completion,
      interrupt acks) are serviced in the driver's kernel entries;
    - mirrored shared state (MAC address, carrier) is kept in the
      kernel-side [Netdev.t] and updated by downcalls;
    - received packets are pulled out of driver memory with a {e defensive
      copy fused with checksum verification} (§3.1.2), so a driver
      mutating the buffer afterwards attacks only its own copy.  Passing
      [~defensive_copy:false] reproduces the TOCTOU-vulnerable
      configuration for the security evaluation. *)

type t

(** What survives a supervised device's driver generations: the netdev
    ([None] until the first registration creates it) and the per-queue
    backlog limit.  Pass one record to every generation via [?adopt]. *)
type persist

val persist_create : backlog_limit:int -> persist
val persist_netdev : persist -> Netdev.t option

val create :
  Kernel.t ->
  chan:Uchan.t ->
  grant:Safe_pci.grant ->
  pool:Bufpool.t ->
  name:string ->
  ?defensive_copy:bool ->
  ?adopt:persist ->
  unit ->
  t
(** Installs the downcall handler on [chan].  The netdev appears once the
    driver performs its [down_net_register] downcall.  With [adopt], the
    first registration records the netdev it creates there, and every
    later one takes that netdev over instead of creating one — swapping
    in its own ops and MAC, re-registering it with the stack only if it
    is absent — so a supervised device keeps one netdev identity across
    driver restarts, cold or warm.  Until its [resume] has replayed the
    backlog, the taken-over netdev's transmits keep parking. *)

val netdev : t -> Netdev.t option

val wait_registered : t -> timeout_ns:int -> bool
(** Block (fiber) until the driver has registered, or time out. *)

val hung : t -> bool
(** The proxy observed the driver failing to service upcalls. *)

val unregister : t -> unit
(** Remove the netdev from the stack (driver death/restart). *)

val release : Kernel.t -> persist -> int
(** Take the supervised netdev out of service for good (quarantine, an
    administrative stop): drop its backlog, carrier off, interface down
    and out of the stack.  Returns the number of frames dropped. *)

val rx_validation_failures : t -> int
(** netif_rx downcalls whose address failed validation. *)

val rx_pool_counters : t -> int * int
(** (hits, fresh): defensive-copy buffers served from the recycle pool
    vs freshly allocated.  Under steady load hits dominate. *)

val frames_per_poll : t -> Sud_obs.Metrics.histogram
(** Log2 histogram of frames delivered per interrupt-ack on any queue —
    the NAPI coalescing factor (1 = no coalescing; higher buckets mean
    one upcall covered a batch of frames). *)

val instance : t -> Proxy_class.t
(** This proxy behind the class-independent supervision surface.  Its
    [quiesce] stops admitting upcalls: transmits bounce as [Xmit_busy]
    and ioctls fail fast; an adopted netdev drops carrier and parks
    transmits in its bounded per-queue backlog.  Its [resume] re-opens
    that gate, reopens an adopted netdev left up and replays its
    backlog queue by queue, frames offered meanwhile parking behind the
    replay, and makes transmits live once every queue is empty, so
    every flow keeps its order.  A quiesce mid-replay leaves the rest
    parked. *)

val handle_downcall : t -> queue:int -> Msg.t -> Msg.t option
(** The downcall dispatcher ([queue] is the ring the message arrived
    on), exposed so class proxies that extend Ethernet (the wireless
    proxy) can chain to it for the common opcodes. *)
