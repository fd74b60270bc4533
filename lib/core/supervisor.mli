(** Kernel-side driver supervisor: automatic detect → contain → recover.

    The paper (§4.1, §5.2) shows a SUD driver being killed with [kill -9]
    and restarted by the administrator with no kernel damage.  The
    supervisor closes that loop autonomously.  A kernel watchdog fiber
    (one per supervised device) polls every misbehavior signal the kernel
    already collects —

    - driver process death (also kicked immediately via an exit hook),
    - uchan closed, malformed user→kernel slots, downcall-ring floods,
    - uchan protocol violations adjudicated by {!Conformance} (wrong
      epoch, forged completions, out-of-order sequences, kinds illegal
      in the DFA state),
    - sustained notification-kick overflow on the driver's {!Quota}
      token bucket,
    - upcalls timing out ([Proxy_net.hung], heartbeat below),
    - IOMMU faults attributed to the device's BDF,
    - interrupt-storm escalations counted by the grant —

    and each tick sends an [up_ping] heartbeat the driver's main upcall
    loop must answer inline within the channel's hang timeout, so a
    wedged main loop is caught even when no other traffic is flowing.

    On detection the supervisor kills the driver process (revoking the
    grant and detaching the IOMMU domain via the normal death path),
    function-level-resets the device ({!Safe_pci.reset_device}), and
    restarts the driver with exponential backoff.  While recovering, the
    netdev does not vanish: carrier goes off and transmits land in a
    bounded backlog that is replayed once the fresh driver registers and
    reopens.  A driver that crash-loops past [max_restarts] within
    [restart_window_ns] is quarantined: netdev unregistered, backlog
    dropped, sysfs [sud_state] set to ["quarantined"], no further
    restarts. *)

type policy = {
  tick_ns : int;  (** watchdog polling period *)
  hang_timeout_ns : int;
      (** uchan sync-upcall deadline for this device — also the heartbeat
          deadline *)
  backoff_initial_ns : int;  (** delay before the first restart *)
  backoff_max_ns : int;  (** cap on the doubled backoff *)
  max_restarts : int;  (** restart budget within the window *)
  restart_window_ns : int;
  backlog_limit : int;  (** frames buffered while recovering *)
  standby : bool;
      (** keep a warm standby generation parked (process forked, rings
          allocated and charged to the same quota ledger) so a lethal
          fault swaps instead of cold-starting, and {!upgrade} is
          possible *)
}

val default_policy : policy
(** 5 ms tick, 20 ms hang timeout, 2 ms initial backoff capped at
    200 ms, 5 restarts per 2 s window, 256-frame backlog, warm standby
    on.  Under every policy, 512 dropped async downcalls in one tick are
    a ring flood, 512 notification-kick token-bucket overflows in one
    tick are a doorbell flood, and each driver's {!Quota} has
    {!Quota.default_limits}. *)

type state = Running | Recovering | Quarantined | Stopped

type event =
  | Fault_detected of string  (** reason, at detection time *)
  | Driver_killed
      (** process dead, grant revoked, device reset — the instant
          containment invariants must hold *)
  | Driver_restarted of { restarts : int; outage_ns : int }
      (** fresh generation serving; [outage_ns] = detection → traffic
          restored *)
  | Driver_quarantined of string

type stats = {
  st_state : state;
  st_restarts : int;
  st_detections : int;
  st_last_reason : string option;
  st_last_detect_latency_ns : int;
      (** detection instant − last instant every check passed *)
  st_last_recovery_ns : int;  (** outage of the most recent recovery *)
  st_warm_swaps : int;  (** recoveries served by the warm standby *)
  st_upgrades : int;  (** completed live upgrades *)
}

type t

val start :
  Kernel.t ->
  Safe_pci.t ->
  ?policy:policy ->
  ?name:string ->
  bdf:Bus.bdf ->
  (attempt:int -> Driver_api.net_driver) ->
  (t, string) result
(** Start the driver under supervision and spawn the watchdog.  Every
    generation runs as uid 1000 and has its received frames defensively
    copied.  The factory is called with [~attempt:0] for the initial
    start and [~attempt:n] (n ≥ 1) for the n-th restart, so tests can
    hand the supervisor a malicious driver first and an honest one after
    recovery.  Must be called from a fiber. *)

val start_blk :
  Kernel.t ->
  Safe_pci.t ->
  ?policy:policy ->
  ?name:string ->
  bdf:Bus.bdf ->
  (attempt:int -> Driver_api.blk_driver) ->
  (t, string) result
(** Supervise a sud-blk driver.  Detection is identical to the net case;
    containment detaches the blkdev (requests park in its staging
    queue), and recovery goes through {!Proxy_class.resume}, which
    replays the retained and in-flight requests in tag order before the
    staged ones — the crash-consistency story. *)

val stop : t -> unit
(** Administrative stop: quiesce then kill the current driver, discard
    the warm standby, unregister the netdev (net targets), end the
    watchdog.  No restart. *)

val upgrade : t -> (unit, string) result
(** Zero-loss live upgrade: wait (bounded) for a warm standby, quiesce
    the running generation, drain its in-flight work to a barrier, hand
    the class state (netdev identity / blk persist record) to the
    standby, and resume.  No acked write is lost and no frame is
    reordered within a flow across the swap.  Not a detection: fault
    counters and the restart budget are untouched; the sysfs [sud_state]
    reads ["upgrading"] for the duration.  If the primary dies mid-drain
    the swap proceeds (double failover) and the undrained in-flight set
    replays in tag order.  A standby found poisoned at the swap instant
    is discarded — never installed — and the upgrade falls back to a
    cold start of the new generation.  [Error] when not Running, when
    warming is disabled by policy, or when no standby becomes ready. *)

val failover : t -> (unit, string) result
(** Operator-forced failover: run the exact fault path — detection
    (reason ["administrative failover"]), kill, FLR, warm swap — on
    demand.  The fire drill for the standby machinery.  Counts as a
    detection and consumes restart budget, exactly like a real fault. *)

val state : t -> state
val netdev : t -> Netdev.t
(** The persistent netdev — same identity across driver generations.
    @raise Invalid_argument on a blk supervisor. *)

val blkdev : t -> Blkdev.t option
(** The persistent block device of a blk supervisor ([None] for net, or
    before the first registration). *)

val name : t -> string

val current_blk : t -> Proxy_blk.t Driver_host.gen option
(** The live generation of a blk supervisor ([None] while recovering or
    for net targets). *)

val proc : t -> Process.t option
val chan : t -> Uchan.t option
val grant : t -> Safe_pci.grant option

val quota : t -> Quota.t
(** The driver's resource ledger — one per supervised device, shared by
    every generation (restarting does not launder the footprint).  The
    warm standby's rings are charged here too, so primary + standby must
    fit the same limits. *)

val standby_status : t -> Standby.status
(** [Disabled] when the policy turned warming off (or after quarantine/
    stop); otherwise the parked generation's state. *)

val standby_stats : t -> int * int
(** [(warmed, poisoned)]: generations parked Ready, and generations
    discarded because they died or misbehaved while parked. *)

val standby_proc : t -> Process.t option
(** The parked standby's driver process, when Ready.  Fault injection
    kills it through this to poison the standby. *)

val warm_swaps : t -> int
(** Recoveries that swapped the warm standby in instead of cold-starting. *)

val upgrades : t -> int
(** Completed live upgrades. *)

val on_event : t -> (event -> unit) -> unit
(** Subscribe to lifecycle events (delivered synchronously, in
    subscription order, from the watchdog fiber). *)

(** {1 Observability}

    Supervisor accounting (detections, restarts, quarantines, detect
    latency and outage histograms) lives in the {!Sud_obs.Metrics}
    registry under subsystem ["supervisor"], labelled
    [("driver", name)].  With tracing enabled, every recovery emits a
    ["sup"] detect → kill → restart/quarantine span chain; a
    DMA-violation detection parents to the IOMMU fault span that
    triggered it, closing the causal loop back to the offending uchan
    RPC. *)

val stats : t -> stats
