(** The shared proxy-class interface.

    Every class proxy — Ethernet, wireless, audio, USB host, block —
    presents the same small supervision surface: its uchan, a hung
    flag, and a lifecycle the supervisor drives through recovery:

    {v
      running --quiesce--> quiesced --(kill/restart)--> resume --> running
    v}

    [quiesce] stops the proxy admitting new work while preserving
    everything in flight (the block proxy retains unacknowledged
    requests for replay; the net proxy parks transmits in the backlog).
    [resume] re-admits work against the restarted driver and replays
    whatever quiesce retained.  [handoff]/[adopt] carry the class's
    kernel-facing state (surviving netdev, blk persist record, mirrored
    device attributes) from a dying generation's proxy to its successor
    — the contract the warm-standby swap rides.  The supervisor and
    driver host program against {!instance} instead of pattern-matching
    on proxy kinds, so adding a device class never touches the recovery
    machinery. *)

type state = ..
(** A class-opaque handoff payload.  Each proxy module extends this with
    its own constructor ([Proxy_net.Net_state], [Proxy_blk.Blk_state],
    ...), so the supervisor can hold and thread one without knowing the
    class. *)

type state += No_state
(** For classes with no kernel-side state worth carrying. *)

module type S = sig
  type t

  val class_name : string
  val chan : t -> Uchan.t

  val hung : t -> bool
  (** The proxy observed the driver failing to service upcalls. *)

  val quiesce : t -> unit
  (** Stop admitting new work and retain in-flight work for replay —
      called before the supervisor kills a faulty generation.  Must be
      idempotent and must not block. *)

  val resume : t -> unit
  (** Re-admit work after a successful restart and replay whatever
      {!quiesce} retained against the new generation.  Idempotent. *)

  val handoff : t -> state
  (** Snapshot the kernel-facing state this proxy guards (taken from the
      dying generation after {!quiesce}, before the kill).  Must be
      idempotent — taking it twice yields equivalent payloads — and must
      not block. *)

  val adopt : t -> state -> unit
  (** Install a {!handoff} payload into this (new-generation) proxy.  A
      proxy created parked does not serve its datapath until it adopts;
      adopting a payload of the wrong class is a no-op. *)
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance
(** A proxy packed with its class module — one capability the supervisor
    can hold for any device class. *)

val class_name : instance -> string
val hung : instance -> bool
val quiesce : instance -> unit
val resume : instance -> unit
val handoff : instance -> state
val adopt : instance -> state -> unit

val heartbeat : instance -> (unit, string) result
(** Synchronous [up_ping] over the proxy's channel, bounded by the
    channel's hang timeout.  Answered inline by the driver's queue-0
    service loop, so success proves the control path is alive — the
    class-independent health probe. *)
