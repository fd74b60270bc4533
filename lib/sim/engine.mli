(** Deterministic discrete-event engine.

    All simulated activity — fibers, hardware, timers — is driven from a
    single ordered event queue.  Time is in nanoseconds of simulated time.
    Events scheduled for the same instant fire in scheduling order, which
    makes every run reproducible. *)

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
(** Run at the current instant, after already-queued events for this
    instant. *)

val cancel : handle -> unit
(** Cancelling an already-fired event is a no-op. *)

val run : ?max_time:int -> ?max_events:int -> t -> unit
(** Process events until the queue is empty or a limit is hit.  [max_time]
    stops the clock from advancing past the given instant (events at later
    times remain queued). *)

val stop : t -> unit
(** Called from an event: the current {!run} returns once that event has
    fired, leaving every later event queued.  Outside [run] it has no
    effect ([run] clears it on entry). *)

val pending : t -> int
(** Number of queued (uncancelled or cancelled-but-unreaped) events. *)

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
    only consulted when [ready > 1].  [None] restores the FIFO fast
    path. *)

val set_observer :
  t -> (step:int -> time:int -> ready:int -> pick:int -> unit) option -> unit
(** Decision tap: called at every choice point ([ready > 1]) with the
    engine step, simulated time, ready-set size and the picked index.
    Only consulted when a picker is installed. *)

val steps : t -> int
(** Events fired so far (cancelled events are reaped, not counted). *)

val trace_hash : t -> int64
(** Streaming fingerprint of the fired [(time, seq)] event stream.  Two
    runs have equal hashes iff they executed the same schedule; replay
    asserts bit-for-bit re-execution by comparing this. *)
