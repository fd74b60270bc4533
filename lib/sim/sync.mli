(** Fiber synchronization: wait queues, mutexes and bounded mailboxes.

    Wait queues are FIFO.  Every blocking operation reports whether it was
    woken normally, interrupted (signal delivery) or timed out, which the
    SUD proxy drivers use to implement interruptible synchronous upcalls
    (paper §3.1.1). *)

module Waitq : sig
  type t

  val create : unit -> t

  val wait : t -> Fiber.wake
  (** Park the current fiber until {!signal}/{!broadcast}, an interrupt or a
      kill. *)

  val wait_timeout : Engine.t -> t -> int -> Fiber.wake
  (** Like {!wait} but also wakes with [Timeout] after the given ns. *)

  val await : Engine.t -> t -> timeout_ns:int -> (unit -> bool) -> Fiber.wake
  (** [await engine t ~timeout_ns cond] waits on [t] until [cond ()]
      holds, checking it first and after every wakeup: [Normal] once it
      holds (at once, without suspending, if it already does), [Timeout]
      when [timeout_ns] have passed without it, [Interrupted] on an
      interrupt. *)

  (** A wait owns its timer and its queue entry: both die the moment the
      wait ends, however it ends.  A signalled wait's timer is cancelled
      inside {!signal}, so it can neither fire later nor wake the fiber
      out of an unrelated wait, and a timed-out, interrupted or killed
      wait leaves no entry that a later {!signal} could spend on it. *)

  val signal : t -> bool
  (** Wake the oldest live waiter.  False if nobody was waiting. *)

  val broadcast : t -> int
  (** Wake all current waiters; returns how many were woken. *)

  val waiters : t -> int
  (** Fibers waiting right now: live entries only. *)
end

module Mutex : sig
  type t

  val create : unit -> t
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Mailbox : sig
  (** Bounded FIFO of values between fibers; the building block for queues
      that are not shared-memory rings. *)

  type 'a t

  val create : capacity:int -> 'a t

  val send : 'a t -> 'a -> [ `Ok | `Interrupted ]
  (** Blocks while full. *)

  val try_send : 'a t -> 'a -> bool

  val recv : 'a t -> [ `Ok of 'a | `Interrupted ]
  (** Blocks while empty. *)

  val try_recv : 'a t -> 'a option
end
