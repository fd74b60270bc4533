(** Per-driver resource ledger and the capability tables it reads.

    Bounds what the kernel holds {e on a driver's behalf} — device
    grants, live DMA mappings and the IO-page-table pages backing them,
    uchan ring memory — plus a per-queue token bucket on notifications
    and IRQ kicks.  One quota is created per supervised driver and
    survives restarts with the generation.

    What a generation holds is booked in one place, its capability
    table ({!caps}): every resource the kernel acquires for it is an
    entry carrying the action that revokes it, and the generation's
    death revokes the table newest first.  The quota keeps no usage
    counters; it reads its usage by folding over its live tables.

    Exhaustion produces backpressure (a bounded wait for capacity, then
    a counted denial) instead of kernel allocation.  Driver-side
    notification kicks are never suppressed — a dry bucket counts an
    overflow the supervisor escalates; kernel-side IRQ forwarding is
    genuinely dropped when dry (the masked vector's pending bit latches
    and the ack-time replay keeps the device live).

    Metrics live under subsystem ["quota"], labelled
    [("driver", name)]: counters [denied], [notify_overflow],
    [irq_kicks_dropped]; gauges [dma_bytes], [uchan_bytes]. *)

type limits = {
  max_grants : int;          (** concurrently open device grants *)
  max_dma_bytes : int;       (** live DMA-mapped bytes *)
  max_iopt_pages : int;      (** IO-page-table pages backing the mappings *)
  max_uchan_bytes : int;     (** uchan ring slot memory *)
  notify_burst : int;        (** token bucket depth, per queue *)
  notify_rate : int;         (** bucket refill, tokens per second *)
}

val default_limits : limits
(** Generous but finite: invisible to honest drivers, binding long
    before a malicious one hurts the kernel. *)

type t

val create : Engine.t -> ?limits:limits -> name:string -> unit -> t
(** [limits] defaults to {!default_limits}. *)

(** {1 Capability tables} *)

type cap =
  | Grant  (** the generation's device grant *)
  | Dma of { iova : int; phys : int; pages : int }
      (** a region mapped into the device's IOMMU domain *)
  | Io_ports of { base : int; len : int }
      (** a port range in the process's IO-permission bitmap *)
  | Vectors of int array  (** the interrupt vectors requested for the device *)
  | Rings of { bytes : int }  (** one uchan's ring pairs *)

type caps
(** One driver generation's capability table: the generation's device
    grant with everything acquired through it, and its rings. *)

type entry
(** A held capability and the action that revokes it. *)

val table : t option -> Process.t -> caps
(** An empty table for a generation running as [proc]; [proc]'s death
    revokes it, newest first.  With a ledger the table's entries count
    against it; without one nothing is limited. *)

val ledger : caps -> t option

val admit : caps -> cap -> (unit, string) result
(** Wait a bounded time for the ledger to have room for [cap] (a dying
    generation may be mid-revocation), then fail with a counted denial.
    Only [cap]'s kind and size count: grants, DMA bytes with their
    IO-page-table pages ({!iopt_pages_for}) and ring bytes are limited;
    IO ports and vectors always fit.  Admission holds nothing: the
    caller acquires the resource and {!record}s it without yielding in
    between. *)

val record : caps -> cap -> revoke:(unit -> unit) -> unit
(** Enter an acquired resource as the table's newest entry. *)

val drop : caps -> (cap -> bool) -> cap option
(** The holder gives back the newest capability satisfying the
    predicate: it leaves the table {e without} running its revocation,
    and the holder undoes the resource itself. *)

val revoke : caps -> (cap -> bool) -> unit
(** Remove every capability satisfying the predicate, then run their
    revocations, newest first. *)

val held : caps -> entry list
(** Newest first. *)

val cap : entry -> cap

val iopt_pages_for : pages:int -> int
(** Leaf PTE pages (512 entries each) plus one interior page. *)

val ring_bytes : slots:int -> queues:int -> int
(** Uchan ring footprint: [queues] ring pairs of [slots] slots. *)

val negotiate_queues : t -> slots:int -> queues:int -> int
(** Clamp a requested queue count so its ring footprint fits the
    remaining uchan budget (never below 1); the caller admits the
    clamped footprint.  {!Driver_host} negotiates every generation's
    rings through it, cold or warm. *)

(** {1 Notification / IRQ-kick token bucket (per queue)} *)

val note_notify : t -> queue:int -> unit
(** Driver-side kick observer: takes a token, counts an overflow when
    the bucket is dry.  Never suppresses the kick. *)

val take_irq_token : t -> queue:int -> bool
(** Kernel-side IRQ forwarding: [false] means the bucket is dry and the
    kick must be dropped (counted in [irq_kicks_dropped]). *)

(** {1 Introspection}

    Usage is summed over the live tables' entries. *)

val grants : t -> int
val dma_bytes : t -> int
val iopt_pages : t -> int
val uchan_bytes : t -> int
val denials : t -> int
val notify_overflows : t -> int
val irq_kicks_dropped : t -> int
