(** uhci-hcd: the UHCI host controller driver.

    It runs transfers on a frame-list schedule and resets root ports,
    and {!Usbcore} does the rest, as it does for {!Ehci}: the same
    enumeration and the same class drivers (usb-storage, usb-hid) ride
    on either controller.  Everything here goes through legacy IO
    ports, so under SUD this driver is confined by the IO-permission
    bitmap for its registers and by the IOMMU for its schedule/TD DMA. *)

val driver : Driver_api.usb_host_driver
