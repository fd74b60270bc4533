(** The shared proxy-class interface.

    Every class proxy — Ethernet, wireless, audio, USB host, block —
    presents the same small supervision surface: its uchan, a hung
    flag, and a lifecycle the supervisor drives through recovery:

    {v
      running --quiesce--> quiesced --(kill/restart)--> resume --> running
    v}

    [quiesce] stops the proxy admitting new work while preserving
    everything in flight (the block proxy retains unacknowledged
    requests for replay; the net proxy refuses transmits, which the
    supervisor parks in the netdev backlog).  [resume] re-admits work
    against the restarted driver and replays whatever quiesce retained.
    A warm standby's proxy is created parked, holding the class's
    surviving kernel object (net: the netdev; blk: the persist record)
    from its creation; its first [resume] is the swap that takes that
    object over.  The supervisor and driver host program against
    {!instance} instead of pattern-matching on proxy kinds, so adding a
    device class never touches the recovery machinery. *)

module type S = sig
  type t

  val chan : t -> Uchan.t

  val hung : t -> bool
  (** The proxy observed the driver failing to service upcalls. *)

  val quiesce : t -> unit
  (** Stop admitting new work and retain in-flight work for replay —
      called before the supervisor kills a faulty generation.  Must be
      idempotent and must not block. *)

  val resume : t -> unit
  (** Re-admit work after a successful restart and replay whatever
      {!quiesce} retained against the new generation.  On a parked
      (warm-standby) proxy it first swaps the proxy in: the driver's
      recorded registration takes over the surviving kernel object
      named at creation.  Idempotent. *)
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance
(** A proxy packed with its class module — one capability the supervisor
    can hold for any device class. *)

val hung : instance -> bool
val quiesce : instance -> unit
val resume : instance -> unit

val heartbeat : instance -> (unit, string) result
(** Synchronous [up_ping] over the proxy's channel, bounded by the
    channel's hang timeout.  Answered inline by the driver's queue-0
    service loop, so success proves the control path is alive — the
    class-independent health probe. *)
