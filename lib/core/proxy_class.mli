(** The shared proxy-class interface.

    Every class proxy — Ethernet, wireless, audio, USB host, block —
    presents the same small supervision surface: its uchan, a hung
    flag, and a lifecycle the supervisor drives through recovery:

    {v
      running --quiesce--> quiesced --(kill/restart)--> resume --> running
    v}

    [quiesce] stops the proxy admitting new work while preserving
    everything in flight (the block proxy retains unacknowledged
    requests for replay; the net proxy drops carrier and parks transmits
    in the netdev's backlog).  [resume] re-admits work against the
    restarted driver and replays whatever quiesce retained (net: it
    reopens an interface left up, then replays the backlog).
    A supervised generation's proxy, cold or warm, is created holding its
    class's persist record, which keeps the surviving kernel object (net:
    the netdev; blk: the blkdev, with tags, in-flight table and
    retention), and its driver's registration takes that object over
    before the first [resume].  Each proxy builds this record of closures over
    itself; the supervisor and driver host hold the record instead of
    pattern-matching on proxy kinds, so adding a device class never
    touches the recovery machinery.

    The downcalls no class owns are answered here once ({!downcall}),
    as [Sud_uml.serve_queues] answers the class-independent upcalls
    for every driver. *)

type t = {
  chan : Uchan.t;
  hung : unit -> bool;
      (** The proxy observed the driver failing to service upcalls. *)
  quiesce : unit -> unit;
      (** Stop admitting new work and retain in-flight work for replay —
          called before the supervisor kills a faulty generation.  Must
          be idempotent and must not block. *)
  resume : unit -> unit;
      (** Re-admit work after a successful restart and replay whatever
          [quiesce] retained against the new generation.  Idempotent. *)
}

val downcall :
  Kernel.t -> Safe_pci.grant -> cls:string -> name:string -> Msg.t -> Msg.t option
(** The end of every proxy's downcall handler, for the kinds its class
    does not own: [down_irq_ack] unmasks the named vector through the
    grant, [down_printk] goes to the kernel log under [name], and any
    other kind is logged as an unexpected downcall from [sud-<cls>].
    Always [None]: none of these is answered. *)

val heartbeat : t -> (unit, string) result
(** Synchronous [up_ping] over the proxy's channel, bounded by the
    channel's hang timeout.  Answered inline by the driver's queue-0
    service loop, so success proves the control path is alive — the
    class-independent health probe. *)
