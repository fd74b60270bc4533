(** Kernel interrupt layer.

    MSI/MSI-X messages that survive the fabric and interrupt-remapping
    checks land in {!deliver} (installed as the topology's MSI sink).
    Handlers run in event context with the preemption context marked
    atomic, like real top halves.

    The native shape of the API is the multi-vector one: a device class
    allocates a contiguous block with {!alloc_vectors} and installs one
    handler over the block with {!request_irqs}, receiving the queue
    index alongside the requester BDF.  Each vector carries its own
    CPU affinity (delivery cost is booked to that CPU's ledger) and its
    own mask bit, so quarantining a storming vector never silences its
    siblings. *)

type t

val create :
  Cpu.t -> Preempt.t -> Klog.t -> t

type handler = source:Bus.bdf -> unit

val alloc_vectors : t -> n:int -> int array
(** Allocate [n] unused vectors from the bounded x86-style space
    (32..255 — the MSI message carries the vector in data[7:0], so
    larger numbers would alias at delivery).  Vectors released by
    {!free_irqs} are recycled lowest-first.  Raises [Invalid_argument]
    when [n <= 0] and [Failure] if the space is exhausted. *)

val request_irqs :
  t -> vectors:int array -> name:string ->
  (queue:int -> source:Bus.bdf -> unit) -> (unit, string) result
(** Install one handler across a vector block; the handler receives the
    index of the vector within [vectors] as [queue].  All-or-nothing:
    fails without side effects if any vector is already requested.
    Each vector starts unmasked with round-robin default affinity
    ([vector mod cores]). *)

val free_irqs : t -> vectors:int array -> unit
(** Remove handlers; the vectors are remembered as freed so late
    deliveries count as post-free spurious per offending BDF. *)

(** {1 Per-vector steering} *)

val set_affinity : t -> vector:int -> cpu:int -> unit
(** Pin a vector's delivery accounting to a sim CPU.  Raises
    [Invalid_argument] on an unrequested vector or out-of-range cpu. *)

val default_affinity : t -> int -> int
(** [vector mod cores]: the round-robin spread [request_irqs] starts
    from before any explicit {!set_affinity}. *)

val mask : t -> vector:int -> unit
(** Drop deliveries on this vector (counted in [qm_masked_dropped])
    from now on — the kernel-side quarantine of a storming queue.
    Sibling vectors are unaffected. *)

val deliver : t -> source:Bus.bdf -> vector:int -> unit
(** Charge interrupt-delivery CPU cost to the vector's affine CPU and
    invoke the handler.  Unhandled vectors are counted and logged as
    spurious; spurious deliveries on a {e freed} vector additionally
    bump a per-BDF ["irq"/"spurious_after_free"] counter so the storm
    detector sees post-free floods.  Masked vectors drop silently. *)

val count : t -> vector:int -> int

type metrics = {
  qm_delivered : Sud_obs.Metrics.counter;
  qm_spurious : Sud_obs.Metrics.counter;
  qm_masked_dropped : Sud_obs.Metrics.counter;
}
(** Delivery counters live in the {!Sud_obs.Metrics} registry under
    subsystem ["irq"]; {!deliver} also emits an ["irq"/"deliver"] trace
    span when tracing is enabled. *)

val metrics : t -> metrics
