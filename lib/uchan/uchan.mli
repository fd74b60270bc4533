(** User channels: the kernel↔driver RPC transport (paper §3.1, Figure 3).

    A channel carries [queues] independent ring pairs (kernel→user,
    user→kernel) of marshalled {!Msg.t}s — queue 0 is the control path
    every channel has; data queues 1..n-1 give a multiqueue device one
    lock-free lane per hardware queue.  Each queue has its own kernel
    worker fiber and its own driver-side async batch, so two queues
    never contend: batches are effectively per-CPU flush buffers.

    Synchronous sends are correlated by sequence number and are
    {e interruptible} on the kernel side, so a hung driver leaves an
    abortable wait, never a wedged kernel thread.  Asynchronous
    driver-side sends are batched: they sit in the queue's pending list
    until the driver next enters the kernel ([wait]/sync send on that
    queue), so a burst of downcalls costs one notification — the
    optimization that lets TCP_STREAM match in-kernel throughput.

    CPU costs (marshalling per message, notification per kick, wakeup
    after sleeping) are charged to the calling fiber through the kernel's
    CPU pool. *)

type t

type error = Hung | Interrupted | Closed

val create :
  Kernel.t ->
  ?slots:int ->
  ?hang_timeout_ns:int ->
  ?queues:int ->
  ?epoch:int ->
  ?profile:Conformance.profile ->
  driver_label:string ->
  unit ->
  t
(** [slots] per ring (default 256, power of two).  [hang_timeout_ns]
    bounds every synchronous upcall on this channel (default
    {!hang_timeout_ns}); the supervisor shrinks it to tighten hang
    detection latency.  [queues] (default 1, max {!max_queues}) is the
    number of ring pairs.  [epoch] (default 0, masked to
    {!Msg.max_epoch}) is the generation stamp marshalled into every
    header — the supervisor passes its generation number, so frames
    replayed from a dead generation fail conformance.  [profile] is the
    proxy-class kind vocabulary for the conformance DFA (default
    {!Conformance.permissive}). *)

val close : t -> unit
(** Tear the channel down (driver death): all blocked senders and waiters
    on every queue return [Error Closed]. *)

val is_closed : t -> bool

val num_queues : t -> int

val max_queues : int

(** {1 The unified send interface}

    One entry point for every way a message crosses the channel.  The
    mode GADT ties the return type to the delivery discipline:

    - [Sync]: block until the peer replies; [Error Hung] after the
      channel's hang timeout (kernel side) and interruptible on both
      sides.
    - [Async]: enqueue without waiting for a reply; if the ring stays
      full past a short grace period the peer is presumed hung.
    - [Batched]: driver side, sit in the queue's local batch until the
      driver next enters the kernel on that queue (or {!batch_limit}
      messages pile up), so a burst costs one notification.  At flush,
      consecutive same-kind batchable messages ({!Msg.Batch.fits}) are
      coalesced into scatter-gather batch slots — one marshal and one
      per-message charge per slot of up to {!Msg.Batch.max_frames}
      frames, not per frame.  On the kernel side (which pays no syscall
      per kick) this degrades to fire-and-forget that counts drops.
    - [Nonblock]: never block, safe from interrupt context; [false]
      when the ring is full or the channel closed. *)

type _ mode =
  | Sync : (Msg.t, error) result mode
  | Async : (unit, error) result mode
  | Batched : unit mode
  | Nonblock : bool mode

val transfer : t -> ?queue:int -> from:[ `Kernel | `Driver ] -> 'r mode -> Msg.t -> 'r
(** [transfer t ~queue ~from mode m] sends [m] on ring pair [queue]
    (default 0) in the direction implied by [from], with [mode]'s
    blocking discipline.  Raises [Invalid_argument] on a bad queue
    index. *)

val set_downcall_handler : t -> (queue:int -> Msg.t -> Msg.t option) -> unit
(** Kernel-side service for driver downcalls; return [Some reply] for
    synchronous downcalls.  Runs in the receiving queue's dedicated
    kernel worker fiber, with [~queue] naming that queue. *)

(** {1 User (driver) side} *)

val wait : ?queue:int -> t -> (Msg.t, error) result
(** [sud_wait]: deliver the next kernel→user message on [queue] (default
    0); flushes that queue's batched asynchronous downcalls before
    sleeping.  A multiqueue driver runs one fiber per queue, each parked
    here on its own queue. *)

val reply : ?queue:int -> t -> Msg.t -> unit
(** Reply to a synchronous upcall ([Msg.seq] must echo the request), on
    the queue it arrived on. *)

val flush : ?queue:int -> t -> unit
(** Force the async batch out (normally implicit in [wait]/sync sends).
    Without [?queue], flushes every queue's batch. *)

(** {1 Batch tuning} *)

val set_batch_limit : t -> int -> unit
(** Set the per-queue accumulation threshold for [Batched] driver sends
    (clamped to at least 1; default {!default_batch_limit}).  1 flushes
    on every send — the pre-batching wire behaviour — while larger
    values let bursts coalesce into scatter-gather slots.  Flushing
    stays load-adaptive: a driver entering the kernel (or one already
    parked in [wait]) ships whatever has accumulated immediately, so a
    lone frame at idle never waits for the batch to fill. *)

val batch_limit : t -> int
(** This channel's effective [Batched] accumulation threshold. *)

val default_batch_limit : int
(** Default accumulation threshold (64), used when {!set_batch_limit}
    was never called. *)

(** {1 Queue handles}

    A first-class handle on one (channel, queue) pair, so per-queue
    fibers and per-queue supervision state can be passed one capability
    instead of a channel plus a loose index. *)

module Queue : sig
  type chan = t
  type t

  val get : chan -> int -> t
  (** Raises [Invalid_argument] if the index is out of range. *)

  val all : chan -> t list
  val index : t -> int
  val chan : t -> chan
  val transfer : t -> from:[ `Kernel | `Driver ] -> 'r mode -> Msg.t -> 'r
  val wait : t -> (Msg.t, error) result
  val reply : t -> Msg.t -> unit
  val flush : t -> unit
end

(** {1 Introspection} *)

val hang_timeout_ns : int
(** Default sync-upcall deadline (50 ms), used when [create] is not given
    one. *)

val hang_timeout : t -> int
(** This channel's effective sync-upcall deadline. *)

(** {1 Observability}

    Per-channel counters and the sync-RPC latency histogram live in the
    {!Sud_obs.Metrics} registry under subsystem ["uchan"], labelled
    [("chan", driver_label)]; per-queue traffic counters
    ([queue_upcalls]/[queue_downcalls]/[queue_dropped]) additionally
    carry [("queue", i)].  With tracing enabled, every sync RPC emits an
    ["uchan"/"rpc"] span at issue (remembered under ["uchan.rpc.last"]
    and a per-seq key) and an ["rpc.complete"] span with the round-trip
    duration; ring pushes/pops emit ["push"]/["pop"] spans carrying the
    queue index; the kernel worker runs downcall handlers under the
    issuing RPC's span so downstream work (IOMMU maps, faults) is
    causally attributed. *)

type metrics = {
  um_up : Sud_obs.Metrics.counter;
  um_down : Sud_obs.Metrics.counter;
  um_notify : Sud_obs.Metrics.counter;
  um_dropped : Sud_obs.Metrics.counter;
  um_malformed : Sud_obs.Metrics.counter;
      (** undecodable u2k slots — scalar messages and whole batch slots.
          A slot-level protocol violation: the supervisor kills on it. *)
  um_malformed_frames : Sud_obs.Metrics.counter;
      (** single entries inside an otherwise-valid batch slot whose
          per-entry checksum failed: exactly that frame is dropped, its
          siblings deliver, and supervision only counts it — frame-level
          noise, not a protocol violation *)
  um_rpc_ns : Sud_obs.Metrics.histogram;
}

val metrics : t -> metrics

val queue_upcalls : t -> queue:int -> int
val queue_downcalls : t -> queue:int -> int

val queue_dropped : t -> queue:int -> int
(** Per-queue share of {!metrics}'s [um_dropped]. *)

(** {1 Protocol conformance}

    Every driver→kernel slot is adjudicated by a per-channel
    {!Conformance} validator before the kernel worker acts on it:
    generation epoch, sequence monotonicity, completion matching, and a
    DFA over message kinds.  Violating messages are dropped and counted
    (metrics under [uchan/proto_violation{chan,class}]); the supervisor
    escalates new violations like grant storms. *)

val epoch : t -> int
(** The generation stamp marshalled into this channel's headers. *)

val conformance : t -> Conformance.t
(** The channel's validator (per-class counts, DFA state). *)

val proto_violations : t -> int
(** Escalation-eligible violation total — what the supervisor baselines
    per generation ({!Conformance.violations} of {!conformance}). *)

val set_notify_hook : t -> (queue:int -> unit) option -> unit
(** Observer called on every driver-side worker kick, before the
    notification lands — the quota layer's per-queue token bucket.  The
    kick itself is never suppressed (starving the trusted worker would
    wedge the ring); sustained floods are counted by the hook's owner
    and escalated by the supervisor. *)

(** {1 Fault injection}

    Hooks for [lib/attacks]: they act on the {e driver} side of the
    transport, modelling a driver that has gone wrong, and never touch
    kernel-side state. *)

val wedge : t -> unit
(** Park the driver main loop: [wait] stops servicing the ring (and stops
    flushing batches) until {!unwedge} or process death.  Sync upcalls
    from the kernel subsequently time out [Hung]. *)

val unwedge : t -> unit
val is_wedged : t -> bool

val inject_corrupt_replies : t -> int -> unit
(** Garble the next [n] driver replies: the slot is filled with 0xFF so
    the kernel worker counts it in {!malformed} and the waiting sender
    times out. *)

val inject_drop_replies : t -> int -> unit
(** Swallow the next [n] driver replies in transit; the waiting sender
    times out [Hung]. *)

val inject_corrupt_batch_frames : t -> int -> unit
(** Garble one frame inside each of the next [n] scatter-gather batch
    slots the driver flushes: that frame's per-entry checksum fails, the
    kernel worker counts it in [um_malformed_frames] and drops it, and
    the sibling frames in the batch still deliver. *)

val armed_corruptions : t -> int
(** Corruptions armed by {!inject_corrupt_replies} and
    {!inject_corrupt_batch_frames} that no slot has carried yet. *)

val set_u2k_mutator : t -> (queue:int -> bytes -> unit) option -> unit
(** Live-fuzzer hook: run on every marshalled driver→kernel slot while
    it is still borrowed from the ring, exactly as a malicious driver
    racing the shared memory would.  The mutator sees scalar and batch
    slots alike (discriminate with {!Msg.Batch.is_batch}). *)

val inject_raw : ?queue:int -> t -> (bytes -> unit) -> bool
(** Live-fuzzer hook: forge one raw u2k slot the driver never sent —
    [writer] fills the borrowed {!Msg.slot_size}-byte slot — then kick
    the kernel worker.  [false] if the ring was full or the channel
    closed. *)

val notify_storm : ?queue:int -> t -> int -> unit
(** Live-fuzzer hook: ring the kernel worker's doorbell [n] times with
    no slots behind the kicks — a malicious driver hammering the notify
    syscall.  Every kick passes through the {!set_notify_hook} observer,
    so the quota token bucket counts the storm; the worker itself just
    finds an empty ring. *)
