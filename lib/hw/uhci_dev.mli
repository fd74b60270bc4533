(** UHCI-class USB host controller — the other HCI the paper ran.

    Where the EHCI model is MMIO + async queue heads, UHCI is all legacy
    IO ports and a 1024-entry {e frame list} of transfer descriptors walked
    once per millisecond frame, and it is a 32-bit-only DMA master.  Under
    SUD it therefore exercises the IOPB path {e and} the IOMMU at once.

    Transfer descriptor (32 bytes, 32-bit fields, as in the real part but
    simplified):
    {v
    +0  link pointer (bit0 = terminate)
    +4  control/status: bit23 active, bit22 stalled, bit24 IOC,
        bits0-10 actual length on completion
    +8  token: PID (0x2D setup, 0x69 in, 0xE1 out) | devaddr<<8 |
        endpoint<<15 | maxlen<<21
    +12 buffer pointer
    v} *)

module Regs : sig
  val usbcmd : int
  val frbaseadd : int
  val portsc1 : int

  val cmd_rs : int
  val portsc_connect : int
  val portsc_reset : int

  val pid_setup : int
  val pid_in : int
  val pid_out : int

  val td_size : int
  val td_active : int
  val td_stalled : int
  val td_ioc : int
  val lp_terminate : int
  val frame_entries : int
end

type t

val create : Engine.t -> ports:int -> unit -> t
val device : t -> Device.t
val plug : t -> port:int -> Usb_device.t -> unit
