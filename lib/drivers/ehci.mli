(** ehci-hcd: the EHCI host controller driver.

    It owns the DMA schedule (queue heads and transfer descriptors live
    in its DMA region — the structures a malicious USB driver would
    point at kernel memory), runs transfers on it and resets root
    ports; {!Usbcore} enumerates the bus and brings the class drivers. *)

val driver : Driver_api.usb_host_driver
