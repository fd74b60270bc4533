(** Register-level model of an e1000-class Gigabit Ethernet controller.

    Faithful in the ways that matter to SUD: the driver programs TX/RX
    descriptor rings by physical (IO-virtual) address, the device fetches
    descriptors and packet data {e by DMA through the PCIe fabric and
    IOMMU}, and interrupts are MSI messages.  A driver that writes a
    kernel address into a descriptor causes real device-initiated DMA to
    that address — which the IOMMU must catch.

    The register subset (offsets in BAR 0) follows the 8254x datasheet's
    legacy layout: CTRL, STATUS, EERD, ICR/ICS/IMS/IMC, RCTL/TCTL,
    TDBAL..TDT, RDBAL..RDT, RAL/RAH.

    {b Multiqueue}: the device can be created with up to
    {!Regs.max_queues} TX/RX ring pairs.  Queue [q]'s ring registers sit
    at the queue-0 offset plus [q * Regs.queue_stride]; MRQC programs
    how many RX queues the {!Rss} flow hash spreads incoming frames
    over.  With MSI-X enabled, queue [q] signals vector [q] (counted
    per vector, so a storm is attributable to one queue); otherwise all
    causes coalesce onto the legacy ITR-moderated MSI path. *)

module Regs : sig
  val status : int
  val eerd : int
  val icr : int
  val itr : int
  (** Interrupt throttling: minimum gap between MSIs, in 256 ns units
      (0 disables moderation). *)

  val ics : int
  val ims : int
  val imc : int
  val rctl : int
  val tctl : int
  val tdbal : int
  val tdbah : int
  val tdlen : int
  val tdh : int
  val tdt : int
  val rdbal : int
  val rdbah : int
  val rdlen : int
  val rdh : int
  val rdt : int
  val ral0 : int

  val mrqc : int
  (** RSS control: number of active RX queues ([<= 1] disables RSS). *)

  val queue_stride : int
  (** Offset between consecutive queues' ring registers (0x100). *)

  val max_queues : int

  val status_lu : int
  val eerd_start : int
  val eerd_done : int
  val rctl_en : int
  val tctl_en : int

  (** Interrupt cause bits *)

  val int_txdw : int
  val int_lsc : int
  val int_rxt0 : int

  (** Legacy descriptor layout *)

  val desc_size : int
  val txd_cmd_eop : int
  val txd_cmd_rs : int
  val txd_sta_dd : int
  val rxd_sta_dd : int
end

type t

val create : Engine.t -> mac:bytes -> medium:Net_medium.t -> ?queues:int -> unit -> t
(** [mac] is 6 bytes, stored in the device EEPROM.  The device attaches a
    station to [medium] immediately (link comes up).  [queues] (default
    1, max {!Regs.max_queues}) is the number of TX/RX ring pairs and
    MSI-X table entries the device advertises. *)

val device : t -> Device.t
val mac : t -> bytes
val queues : t -> int

(** Observability for tests and benches *)

val tx_frames : t -> int
val rx_frames : t -> int
val rx_dropped : t -> int
(** Frames discarded because RX was disabled or the ring had no free
    descriptors. *)

val dma_faults : t -> int
(** Device-side count of DMA transactions that were refused by the fabric
    (IOMMU fault, ACS block, master abort). *)

val rx_queue_frames : t -> queue:int -> int
(** Frames the RSS dispatcher landed in one RX queue. *)
