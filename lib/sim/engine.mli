(** Deterministic discrete-event engine.

    All simulated activity — fibers, hardware, timers — is driven from a
    single ordered event queue.  Time is in nanoseconds of simulated time.
    Every event gets a sequence number when it is scheduled, and events
    fire in [(time, seq)] order: events scheduled for the same instant
    fire in scheduling order, which makes every run reproducible.

    The queue has two parts.  A delay-0 event ({!schedule_now}) joins a
    FIFO {e lane} for the current instant; every other event goes to a
    binary heap.  A lane event is due now and has a higher sequence number
    than every event already queued, so the lane is always in
    [(time, seq)] order, and the clock cannot pass the current instant
    until the lane is empty.  The engine fires the earlier of the lane's
    front and the heap's top, which is exactly the order a single queue
    of every event would give; the lane only spares the delay-0 events
    (about half of all events in the benchmark workloads) a heap push and
    pop. *)

type t

type handle
(** A scheduled event, cancellable until it fires. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0.  [seed] initializes the engine's root RNG
    (default 1). *)

val now : t -> int
(** Current simulated time in nanoseconds. *)

val rng : t -> Rng.t
(** The engine's root random stream; split it for independent components. *)

val schedule_after : t -> int -> (unit -> unit) -> handle
(** [schedule_after t delay fn] runs [fn] at [now t + delay].
    Raises [Invalid_argument] on a negative delay. *)

val schedule_now : t -> (unit -> unit) -> handle
(** [schedule_after t 0]: run at the current instant, after the events
    already queued for this instant.  The event joins the lane. *)

val cancel : t -> handle -> unit
(** [cancel t h] frees the event [h] that [t] scheduled: it never fires,
    never counts as a step and never moves the clock, and the queue drops
    it physically: when it reaches the front, or earlier, once cancelled
    events are more than 64 and more than half of the lane and the heap
    together, which are then both compacted in one pass.  Cancelling an
    event that already fired or was already cancelled is a no-op. *)

val run : ?max_time:int -> ?max_events:int -> t -> unit
(** Process events until the queue is empty or a limit is hit.  [max_time]
    stops the clock from advancing past the given instant (events at later
    times remain queued). *)

val stop : t -> unit
(** Called from an event: the current {!run} returns once that event has
    fired, leaving every later event queued.  Outside [run] it has no
    effect ([run] clears it on entry). *)

val pending : t -> int
(** Number of live events, in the lane and the heap together: scheduled,
    not yet fired and not cancelled. *)

(** {1 Scheduler policy hooks}

    Events scheduled for the same instant form a {e ready set}; which of
    them fires next is the only scheduling freedom the simulator has, and
    every fiber preemption point (Sync/Waitq wakeups, uchan notify
    delivery, timer expiry) is mediated by exactly such a choice.  By
    default the engine picks the lowest sequence number — the historical
    FIFO order.  A picker installed with {!set_picker} chooses instead;
    {!Sched} wraps this into record/replay-able policies. *)

val set_picker : t -> (step:int -> ready:int -> int) option -> unit
(** [set_picker t (Some f)] routes every same-instant choice through
    [f ~step ~ready], which must return an index in [\[0, ready)] into the
    seq-ordered ready set (out-of-range picks clamp to 0 = FIFO).  [f] is
    only consulted when [ready > 1]: a lone earliest event fires without
    building a ready set, and only a real choice point gathers one.  The
    events not picked stay queued in seq order.  [None] restores the FIFO
    fast path; a picker that always returns 0 fires exactly the FIFO
    order. *)

val set_observer :
  t -> (step:int -> time:int -> ready:int -> pick:int -> unit) option -> unit
(** Decision tap: called at every choice point ([ready > 1]) with the
    engine step, simulated time, ready-set size and the picked index.
    Only consulted when a picker is installed. *)

val steps : t -> int
(** Events fired so far; cancelled events are never counted. *)

val trace_hash : t -> int64
(** Streaming fingerprint of the fired [(time, seq)] event stream.  Two
    runs have equal hashes iff they executed the same schedule; replay
    asserts bit-for-bit re-execution by comparing this. *)
