(** Cooperative fibers over the discrete-event engine.

    Fibers let simulated processes — kernel threads, driver processes,
    device firmware — be written in direct style: they block on waits,
    sleeps and CPU consumption, and the engine interleaves them
    deterministically.  Implemented with OCaml 5 effect handlers.

    Only one fiber runs at a time; resumptions always go through the engine
    queue, so there is no nesting and no data races.

    A suspended fiber keeps its continuation.  Whatever ends the wait —
    {!wake}, {!interrupt} or {!kill} — queues exactly one closure, the step
    that continues the continuation (or unwinds it with {!Killed} when a
    kill is pending), on the current instant's lane ({!Engine.schedule_now}). *)

exception Killed
(** Raised inside a fiber when it is killed, so [Fun.protect]-style cleanup
    runs.  Corresponds to delivering SIGKILL to a simulated process. *)

type t

type wake =
  | Normal       (** woken by the event it was waiting for *)
  | Interrupted  (** woken by a signal (e.g. user pressed Ctrl-C) *)
  | Timeout      (** woken by a timeout armed alongside the wait *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t
(** Queue a new fiber; it starts at the current instant.  An uncaught
    exception other than {!Killed} escapes from [Engine.run]. *)

val self : unit -> t
(** The running fiber.  Raises [Failure] outside fiber context. *)

val id : t -> int
val is_alive : t -> bool

val suspend : (t -> unit -> unit) -> wake
(** [suspend register] parks the current fiber and returns the reason it
    was woken.  [register fiber] files the fiber where its waker will find
    it (a wait queue, a timer), without waking it, and returns the wait's
    release, which unfiles it.  Whatever ends the suspension — {!wake}, {!interrupt} or
    {!kill} — runs the release right there, before the fiber resumes, so
    the wait's timer and queue entry die with the wait and can never wake
    a later one.  Outside [lib/sim] use {!sleep} or the [Sync] waits. *)

val wake : t -> wake -> bool
(** Resume a suspended fiber (via the engine queue), ending its current
    suspension.  Returns false if the fiber was not suspended. *)

val kill : t -> unit
(** Kill the fiber: if suspended, it is resumed with {!Killed}; if it has a
    wake already in flight, it dies at its next step.  Inside a
    {!defer_kill} section the kill only pends: the fiber's wait, if any,
    runs to its end, and the section's end raises {!Killed}.  Killing a
    dead fiber is a no-op. *)

val defer_kill : (unit -> 'a) -> 'a
(** [defer_kill f] runs [f ()] with kills of the running fiber deferred
    to its end, as Linux delivers SIGKILL only when a system call exits:
    a kill that lands while [f] runs takes effect when [f] returns, by
    raising {!Killed} there.  If [f] raises, the exception goes on
    unchanged and the kill stays pending, so the fiber dies at its next
    step.  Sections nest; outside fiber context it just runs [f].
    Only the kernel side of a driver's entry may use it (a driver that
    could defer its own kill could outlive its [kill -9]). *)

val interrupt : t -> bool
(** Deliver an interrupt: a suspended fiber's wait returns {!Interrupted}.
    Models interruptible sleeps (Ctrl-C on a hung synchronous upcall). *)

val sleep : Engine.t -> int -> wake
(** Sleep for the given number of nanoseconds; may return early with
    [Interrupted].  The sleep owns its timer: a sleep ended early cancels
    it at once. *)

val poll : Engine.t -> every_ns:int -> budget:int -> (unit -> bool) -> bool
(** [poll eng ~every_ns ~budget cond] checks [cond], then sleeps
    [every_ns], at most [budget] times, and returns whether [cond] held
    at the last check.  It returns [true] without sleeping when [cond]
    already holds, and [false] after exactly [budget] sleeps (the clock
    advanced by [budget * every_ns]) when it never does. *)
