(** User channels: the kernel↔driver RPC transport (paper §3.1, Figure 3).

    A channel carries [queues] independent ring pairs (kernel→user,
    user→kernel) of marshalled {!Msg.t}s — queue 0 is the control path
    every channel has; data queues 1..n-1 give a multiqueue device one
    lock-free lane per hardware queue.  Each queue has its own
    driver-side async batch, so two queues never contend: batches are
    effectively per-CPU flush buffers.

    Synchronous sends are correlated by sequence number and are
    {e interruptible} on the kernel side, so a hung driver leaves an
    abortable wait, never a wedged kernel thread.  Asynchronous
    driver-side sends are batched: they sit in the queue's pending list
    until the driver next enters the kernel ([wait] or a {!downcall} on
    that queue), so a burst of downcalls costs one notification — the
    optimization that lets TCP_STREAM match in-kernel throughput.

    No kernel thread serves the channel.  Every driver-side kernel entry
    on a queue — [wait]'s flush, a {!downcall}, [reply], a
    batch-limit flush, {!flush}, {!inject_raw} — drains that queue's
    driver→kernel ring in the entering fiber: it pops each slot, charges
    it, adjudicates it ({!Conformance}) and runs the downcall handler,
    until the ring is empty.  A kill of the entering fiber waits for the
    drain to end, as Linux delivers SIGKILL at system call exit, so no
    handler stops half-way; the drain stops at the first slot after the
    channel closes, so that wait is at most one handler.  A fiber that
    enters while another fiber drains the queue leaves its slots to
    that drainer, so a queue's slots dispatch one at a time, in ring
    order.

    CPU costs are charged through the kernel's CPU pool.  The driver
    side (marshalling its downcalls, the [wait] syscall, wakeups after
    sleeping) goes on the running process's line; the kernel side
    (marshalling upcalls, waking the driver, one charge per drained
    slot with the entry's doorbell on its first) goes on
    ["kernel:sud"]. *)

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
    proxy-class kind vocabulary for the conformance DFA (default: every
    kind is control, so only epoch, sequence and reply checks apply). *)

val close : t -> unit
(** Tear the channel down (driver death): all blocked senders and waiters
    on every queue return [Error Closed]. *)

val is_closed : t -> bool

val num_queues : t -> int

val max_queues : int

(** {1 Sends}

    One function per way a message crosses the channel (paper §3.1):
    synchronous, interruptible RPCs and asynchronous ones, in each
    direction.  The synchronous ones ride ring 0, the control path the
    heartbeat relies on; the others take a ring [queue] (default 0) and
    raise [Invalid_argument] on a bad index.

    Kernel side (upcalls): *)

val call : t -> Msg.t -> (Msg.t, error) result
(** Synchronous upcall: block until the driver replies.  [Error Hung]
    after the channel's hang timeout, [Error Interrupted] when the
    calling fiber is interrupted, [Error Closed] when the channel
    closes. *)

val post : ?queue:int -> t -> Msg.t -> (unit, error) result
(** Asynchronous upcall: enqueue without waiting for a reply.  If the
    ring stays full past a short grace period the driver is presumed
    [Hung]. *)

val post_nonblock : ?queue:int -> t -> Msg.t -> bool
(** Asynchronous upcall that never blocks, safe from interrupt context:
    [false] when the ring is full or the channel closed. *)

(** Driver side (downcalls): *)

val downcall : t -> Msg.t -> (Msg.t, error) result
(** Synchronous downcall: ships ring 0's batch, then enters the
    kernel, whose drain runs the handler in the calling fiber and returns
    its reply.  Interruptible. *)

val downcall_batched : ?queue:int -> t -> Msg.t -> unit
(** Asynchronous downcall: it sits in the queue's batch until the driver
    next enters the kernel on that queue (or the channel's batch limit
    of messages piles up), so a burst costs one notification.  At flush,
    consecutive same-kind batchable messages ({!Msg.Batch.fits}) are
    coalesced into scatter-gather batch slots — one marshal and one
    per-message charge per slot of up to {!Msg.Batch.max_frames} frames,
    not per frame. *)

val set_downcall_handler : t -> (queue:int -> Msg.t -> Msg.t option) -> unit
(** Kernel-side service for driver downcalls; return [Some reply] for
    synchronous downcalls.  Runs in the fiber of the driver's kernel
    entry that drains the slot, with [~queue] naming the queue, and
    must never wait on a driver fiber: the one it runs in is busy
    running it. *)

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

val pending : ?queue:int -> t -> bool
(** Whether a kernel→user message waits on [queue] (default 0) for the
    next [wait].  A read of the ring's indices in the shared memory: no
    kernel entry and no charge. *)

(** {1 Batch tuning} *)

val set_batch_limit : t -> int -> unit
(** Set the per-queue accumulation threshold for {!downcall_batched}
    (clamped to at least 1; default 64).  1 flushes
    on every send — the pre-batching wire behaviour — while larger
    values let bursts coalesce into scatter-gather slots.  Flushing
    stays load-adaptive: a driver entering the kernel (or one already
    parked in [wait]) ships whatever has accumulated immediately, so a
    lone frame at idle never waits for the batch to fill. *)

(** {1 Introspection} *)

val hang_timeout_ns : int
(** Default sync-upcall deadline (50 ms), used when [create] is not given
    one. *)

(** {1 Observability}

    Per-channel counters and the sync-RPC latency histogram live in the
    {!Sud_obs.Metrics} registry under subsystem ["uchan"], labelled
    [("chan", driver_label)]; per-queue traffic counters
    (["queue_upcalls"], ["queue_downcalls"], ["queue_dropped"])
    additionally carry [("queue", i)].  With tracing enabled, every sync RPC emits an
    ["uchan"/"rpc"] span at issue (remembered under ["uchan.rpc.last"]
    and a per-seq key) and an ["rpc.complete"] span with the round-trip
    duration; ring pushes/pops emit ["push"]/["pop"] spans carrying the
    queue index; the drain runs downcall handlers under the issuing
    RPC's span so downstream work (IOMMU maps, faults) is causally
    attributed. *)

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

(** {1 Protocol conformance}

    Every driver→kernel slot is adjudicated by a per-channel
    {!Conformance} validator before the kernel acts on it:
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
(** Observer called on every driver-side kernel entry, before its drain
    — the quota layer's per-queue token bucket.  The entry itself is
    never refused (an undrained ring would wedge the channel); sustained
    floods are counted by the hook's owner and escalated by the
    supervisor. *)

(** {1 Fault injection}

    Hooks for [lib/attacks]: they act on the {e driver} side of the
    transport, modelling a driver that has gone wrong, and never touch
    kernel-side state. *)

val wedge : t -> unit
(** Park the driver main loop: [wait] stops servicing the ring (and stops
    flushing batches) until process death.  Sync upcalls
    from the kernel subsequently time out [Hung]. *)

val inject_corrupt_replies : t -> int -> unit
(** Garble the next [n] driver replies: the slot is filled with 0xFF so
    the kernel counts it in [um_malformed] and the waiting sender times
    out. *)

val inject_drop_replies : t -> int -> unit
(** Swallow the next [n] driver replies in transit; the waiting sender
    times out [Hung]. *)

val inject_corrupt_batch_frames : t -> int -> unit
(** Garble one frame inside each of the next [n] scatter-gather batch
    slots the driver flushes: that frame's per-entry checksum fails, the
    kernel counts it in [um_malformed_frames] and drops it, and
    the sibling frames in the batch still deliver. *)

val armed_corruptions : t -> int
(** Corruptions armed by {!inject_corrupt_replies} and
    {!inject_corrupt_batch_frames} that no slot has carried yet. *)

val set_u2k_mutator : t -> (queue:int -> bytes -> unit) option -> unit
(** Live-fuzzer hook: run on every marshalled driver→kernel slot while
    it is still borrowed from the ring, exactly as a malicious driver
    racing the shared memory would.  The mutator sees scalar and batch
    slots alike (discriminate with {!Msg.Batch.is_batch}). *)

val inject_raw : t -> (bytes -> unit) -> bool
(** Live-fuzzer hook: forge one raw u2k slot the driver never sent on
    queue 0 — [writer] fills the borrowed {!Msg.slot_size}-byte slot —
    then enter the kernel on queue 0, whose drain adjudicates it in the
    calling fiber.  [false] if the ring was full or the channel
    closed. *)

val notify_storm : t -> int -> unit
(** Live-fuzzer hook: enter the kernel on queue 0 [n] times with no
    slots behind the entries — a malicious driver hammering the notify
    syscall.  Every entry passes through the {!set_notify_hook}
    observer, so the quota token bucket counts the storm; each drain
    just finds an empty ring. *)
