(** Per-driver resource ledger.

    Bounds what the kernel holds {e on a driver's behalf} — device
    grants, live DMA mappings and the IO-page-table pages backing them,
    uchan ring memory — plus a per-queue token bucket on notifications
    and IRQ kicks.  One quota is created per supervised driver and
    survives restarts with the generation.

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

(** {1 Ledger charges}

    Each charge waits a bounded time for capacity (a dying generation
    may be mid-release), then fails with a counted denial.  Releases
    never fail and clamp at zero. *)

val charge_grant : t -> (unit, string) result
val release_grant : t -> unit

val charge_dma : t -> bytes:int -> pages:int -> (unit, string) result
(** Charges [bytes] of DMA-mapped memory plus the IO-page-table pages
    implied by mapping [pages] 4K pages ({!iopt_pages_for}). *)

val release_dma : t -> bytes:int -> pages:int -> unit

val charge_uchan : t -> bytes:int -> (unit, string) result
val release_uchan : t -> bytes:int -> unit

val iopt_pages_for : pages:int -> int
(** Leaf PTE pages (512 entries each) plus one interior page. *)

val ring_bytes : slots:int -> queues:int -> int
(** Uchan ring footprint: [queues] ring pairs of [slots] slots. *)

val negotiate_queues : t -> slots:int -> queues:int -> int
(** Clamp a requested queue count so its ring footprint fits the
    remaining uchan budget (never below 1); the caller charges the
    clamped footprint.  {!Driver_host} negotiates every generation's rings
    through it, cold or warm. *)

(** {1 Notification / IRQ-kick token bucket (per queue)} *)

val note_notify : t -> queue:int -> unit
(** Driver-side kick observer: takes a token, counts an overflow when
    the bucket is dry.  Never suppresses the kick. *)

val take_irq_token : t -> queue:int -> bool
(** Kernel-side IRQ forwarding: [false] means the bucket is dry and the
    kick must be dropped (counted in [irq_kicks_dropped]). *)

(** {1 Introspection} *)

val grants : t -> int
val dma_bytes : t -> int
val iopt_pages : t -> int
val uchan_bytes : t -> int
val denials : t -> int
val notify_overflows : t -> int
val irq_kicks_dropped : t -> int
