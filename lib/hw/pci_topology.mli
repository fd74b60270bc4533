(** The PCIe fabric: switches, endpoints, transaction routing, ACS.

    Routing implements the behaviours the paper's confinement argument
    rests on (§3.2.2):

    - Upstream DMA from an endpoint passes its switch chain toward the
      root complex.  If a switch on the path has {e P2P request
      redirection} disabled and the target address hits a peer device's
      BAR below that switch, the transaction is delivered {e directly to
      the peer} — the peer-to-peer DMA attack.  With ACS enabled the
      request continues to the root, where the IOMMU translates it (and
      faults, since MMIO addresses are never in IO page tables).
    - The root translates {e every} IOVA page a transfer touches before
      moving a byte, and moves each page's bytes to that page's own
      physical frame.  If any page is unmapped, read-only for a write,
      or in the MSI window, the transfer faults and moves nothing: a
      device cannot run off the end of its grant.
    - {e Source validation} at the endpoint's upstream switch port rejects
      requests whose requester ID does not match the port.
    - Writes that reach the root and fall in the MSI window are passed to
      the interrupt-remapping check and then to the MSI sink (the kernel's
      interrupt dispatch).

    CPU-initiated MMIO, IO-port and config accesses are also routed here. *)

type t
type switch

val create : mem:Phys_mem.t -> iommu:Iommu.t -> ioports:Ioport.t -> unit -> t

val root_switch : t -> switch
(** The root complex's internal "switch"; devices attached here sit on root
    ports. *)

val add_switch : t -> parent:switch -> switch

val enable_acs_everywhere : t -> unit
(** What SUD does at startup: source validation + P2P redirection on every
    switch. *)

val attach : t -> switch:switch -> Device.t -> Bus.bdf
(** Attach an endpoint: assigns the next BDF on that switch's bus, carves
    MMIO and IO-port windows for its BARs, programs the BARs, registers IO
    ranges, and installs the DMA host interface.  Returns the BDF. *)

val find_device : t -> Bus.bdf -> Device.t option

val set_msi_sink : t -> (source:Bus.bdf -> vector:int -> unit) -> unit
(** Install the interrupt controller; MSI messages that pass interrupt
    remapping arrive here. *)

val set_dma_charge : t -> ([ `Hit | `Walk | `Bypass ] -> unit) -> unit
(** Install the cost sink for DMA address translation.  Called once per
    IOVA page a device-initiated DMA touches, with how the IOMMU produced
    the answer ([`Hit] = IOTLB, [`Walk] = two-level table walk,
    [`Bypass] = passthrough or implicit MSI); the kernel maps these to
    {!Cost_model} charges. *)

(** {1 CPU-initiated access} *)

val cfg_read : t -> Bus.bdf -> off:int -> size:int -> int
val cfg_write : t -> Bus.bdf -> off:int -> size:int -> int -> unit
(** Raw config access — the root's view, used by the kernel.  Untrusted
    drivers never get this; they go through SUD's filter. *)

val mmio_read : t -> addr:int -> size:int -> int
(** CPU read decoded by physical address; raises {!Phys_mem.Bus_error} if
    no BAR claims the address or the device's memory decoding is off. *)

val mmio_write : t -> addr:int -> size:int -> int -> unit

val bar_region : t -> Bus.bdf -> bar:int -> (int * int) option
(** Assigned [(base, size)] of a BAR, if that BAR exists. *)

val io_region : t -> Bus.bdf -> bar:int -> (int * int) option
(** Assigned [(port_base, len)] of an IO BAR. *)

(** {1 Observability}

    Fabric counters live in the {!Sud_obs.Metrics} registry under
    subsystem ["pci"]. *)

val routing_faults : t -> Bus.fault list
(** ACS blocks, source-validation rejections and master aborts recorded by
    the fabric (IOMMU faults are recorded by the IOMMU itself). *)

type metrics = {
  pm_p2p : Sud_obs.Metrics.counter;
      (** peer-to-peer transactions delivered directly — each one is a
          successful attack in an unprotected configuration *)
  pm_msi : Sud_obs.Metrics.counter;
  pm_ir_blocked : Sud_obs.Metrics.counter;
}

val metrics : t -> metrics

