(** usbcore: the USB stack above the host controller, written once for
    every host controller driver (HCD).

    An HCD ({!Ehci}, {!Uhci}) keeps its schedule, its transfers and its
    port reset, and hands them over as one {!hcd} record.  usbcore
    enumerates the two root ports (reset, SET_ADDRESS, GET_DESCRIPTOR,
    SET_CONFIGURATION), builds each device's
    {!Driver_api.usb_dev_handle}, and brings the class drivers that
    ride on the handles: usb-storage (SCSI over bulk-only transport, a
    {!Driver_api.block_instance}) and usb-hid (a keyboard poller).  All
    of it runs in the driver process. *)

type hcd = {
  reset_port : int -> bool;
      (** reset the port if a device is connected; [false] if none is *)
  control : devaddr:int -> setup:bytes -> dir_in:bool -> len:int -> (bytes, string) result;
  bulk_out : devaddr:int -> ep:int -> bytes -> (unit, string) result;
  bulk_in : devaddr:int -> ep:int -> len:int -> (bytes, string) result;
  interrupt_in : devaddr:int -> ep:int -> len:int -> (bytes, string) result;
      (** fails with {!nak} when the endpoint has nothing to report *)
}

val nak : string
(** The error an HCD's transfer returns when it gives up on an endpoint
    that kept NAKing; an interrupt IN that ends so reports nothing. *)

val host : Driver_api.env -> hcd -> Driver_api.usb_host_instance
(** The host instance an HCD's probe returns: enumeration over [hcd]
    (addresses from 1) and the usb-storage and usb-hid class drivers. *)
