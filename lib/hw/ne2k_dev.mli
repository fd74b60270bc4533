(** NE2000-class Ethernet controller (DP8390 core) driven entirely by
    legacy IO ports — no bus mastering at all.

    The contrast device for SUD: confining it needs only the IOPB (no
    IOMMU mappings), and its Figure 9 equivalent is an empty page table.
    One liberty vs. the 1990s part: our simulated card is the PCIe variant
    and signals completions by MSI, since SUD forbids shared legacy
    interrupt lines (paper §3.2.2).

    Register model (offsets from the IO BAR): page 0/1 of the DP8390
    register file, a 16 KiB on-card packet buffer reachable through the
    remote-DMA data port, and the classic PSTART/PSTOP receive ring. *)

module Regs : sig
  val cr : int
  val pstart : int
  val pstop : int
  val bnry : int
  val tpsr : int
  val tbcr0 : int
  val tbcr1 : int
  val isr : int
  val rsar0 : int
  val rsar1 : int
  val rbcr0 : int
  val rbcr1 : int
  val rcr : int
  val tcr : int
  val dcr : int
  val imr : int
  val dataport : int

  (* page 1 *)
  val curr : int

  (* CR bits *)
  val cr_stp : int
  val cr_sta : int
  val cr_txp : int
  val cr_rd_read : int
  val cr_rd_write : int
  val cr_page1 : int

  (* ISR bits *)
  val isr_prx : int
  val isr_ptx : int
  val isr_rdc : int

  val buffer_pages : int
  (** Total 256-byte pages of on-card memory. *)
end

type t

val create : Engine.t -> mac:bytes -> medium:Net_medium.t -> unit -> t

val device : t -> Device.t
