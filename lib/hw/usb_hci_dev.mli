(** EHCI-like USB host controller.

    The schedule lives in host memory and is fetched by DMA, exactly the
    property SUD cares about: a malicious USB driver can point queue heads
    or transfer buffers at arbitrary addresses, and the only thing standing
    between the HC's DMA engine and kernel memory is the IOMMU.

    Simplified schedule format (32-byte aligned structures):

    Queue head (QH), 32 bytes:
    {v
    +0  next QH pointer (8 bytes, 0 = end of list)
    +8  device address (1), endpoint (1), type (1: 0=control 2=bulk 3=intr),
        direction (1: 0=OUT 1=IN)
    +16 first qTD pointer (8 bytes, 0 = none)
    v}

    Transfer descriptor (qTD), 32 bytes:
    {v
    +0  next qTD pointer (8)
    +8  flags (1: bit0 active, bit1 IOC), status (1: 0=ok 1=stall),
        reserved (2), total length (4)
    +16 buffer address (8)
    +24 actual length transferred (4), reserved (4)
    v}

    Control transfers carry the 8-byte setup packet at the start of the
    buffer, followed by the data stage area.  The HC walks the async list
    every 125 us microframe, completing at most one qTD per QH per frame;
    NAKed interrupt transfers stay active and are retried. *)

module Regs : sig
  val usbcmd : int
  val asynclistaddr : int
  val portsc0 : int

  val cmd_run : int
  val portsc_connect : int
  val portsc_reset : int

  val qtd_active : int
  val qtd_ioc : int

  val ep_type_control : int
  val ep_type_bulk : int
  val ep_type_interrupt : int
end

type t

val create : Engine.t -> ports:int -> unit -> t
val device : t -> Device.t

val plug : t -> port:int -> Usb_device.t -> unit
(** Connect a USB device; sets the port's connect bit and raises a
    port-change interrupt. *)
