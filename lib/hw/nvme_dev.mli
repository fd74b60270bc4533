(** A simulated NVMe-style block controller.

    Paired submission/completion queues in host memory (64-byte SQEs,
    16-byte CQEs with a phase tag), per-queue doorbells, one MSI-X
    vector per queue pair, and all data movement by DMA through the
    IOMMU.  A queue's MSI-X pending bit follows its completion queue: a
    CQ head doorbell that reaps every posted entry clears it, so
    unmasking the vector replays only completions the driver has not
    reaped.

    Durability model: writes land in a {e volatile} write cache; only a
    flush command (or a write carrying the FUA flag) moves sectors to
    media.  {!Device.ops.reset} — the supervisor's FLR stand-in — drops
    the cache, so a driver crash genuinely loses unflushed data, which
    is the window the sud-blk replay machinery must cover.

    One-shot fault hooks model lying/buggy firmware for the soak
    harness: a corrupted completion garbles the cid, a dropped
    completion never posts, a dropped flush neither persists nor
    acknowledges (the device never falsely claims durability — the
    host escalates by timeout). *)

module Regs : sig
  val cap_nqs : int
  val cc : int
  val csts : int
  val cap_lo : int
  val cap_hi : int
  val qcfg_base : int
  val qcfg_stride : int
  val sq_base_lo : int
  val sq_base_hi : int
  val sq_size : int
  val cq_base_lo : int
  val cq_base_hi : int
  val cq_size : int
  val db_base : int
  val cc_en : int
  val csts_rdy : int
  val sqe_size : int
  val cqe_size : int
  val op_flush : int
  val op_write : int
  val op_read : int
  val flags_fua : int
end

type t

val create : Engine.t -> ?capacity:int -> unit -> t
(** Four hardware queue pairs; [capacity] in 512-byte sectors (default
    16384). *)

val device : t -> Device.t
val capacity : t -> int

(** {2 Oracle accessors} — what the invariant checker compares against. *)

val media_sector : t -> lba:int -> bytes option
(** Durable contents of a sector ([None] = never persisted). *)

(** {2 One-shot fault hooks} *)

val inject_corrupt_completion : t -> mask:int -> unit
(** XOR the next completion's cid with [mask]. *)

val inject_drop_completion : t -> unit
val inject_drop_flush : t -> unit

(** {2 Counters} *)

val debug_qp_summary : t -> string
val writes : t -> int
val fua_writes : t -> int
