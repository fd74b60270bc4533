(** USB host proxy.

    The paper's Figure 5 lists the USB host proxy at {e zero} additional
    lines: the whole USB stack (host controller driver, enumeration,
    class drivers) lives inside the driver process, and only the class
    results surface to the kernel — a block device (usb-storage, the
    §4 "we are working on a block device proxy" extension) and input
    events (usb-hid). *)

type t

val create :
  Kernel.t ->
  chan:Uchan.t ->
  grant:Safe_pci.grant ->
  pool:Bufpool.t ->
  name:string ->
  unit ->
  t

val wait_block : t -> timeout_ns:int -> int option
(** Wait for a storage device to register; returns its capacity in
    512-byte blocks. *)

val read_blocks : t -> lba:int -> count:int -> (bytes, string) result
(** Synchronous upcall; data crosses in shared buffers, validated and
    copied out by the proxy. *)

val write_blocks : t -> lba:int -> bytes -> (unit, string) result

val set_key_handler : t -> (int -> unit) -> unit
(** Input events from a USB keyboard behind the same host controller. *)

val keys_received : t -> int

val instance : t -> Proxy_class.t
(** This proxy behind the class-independent supervision surface. *)
