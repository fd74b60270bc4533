(** A PCI endpoint device: config space plus register-file behaviour.

    Device models (e1000, HDA, EHCI, ...) construct one of these.  The
    platform ({!Pci_topology}) attaches it, assigns BDF/BAR addresses and
    installs the host interface through which the device issues DMA.  All
    DMA — including raising an MSI, which is just a 4-byte write to the MSI
    window — flows through the topology and the IOMMU, so a device
    programmed maliciously is subject to exactly the checks the paper
    relies on. *)

type ops = {
  mmio_read : bar:int -> off:int -> size:int -> int;
  mmio_write : bar:int -> off:int -> size:int -> int -> unit;
  io_read : bar:int -> off:int -> size:int -> int;
  io_write : bar:int -> off:int -> size:int -> int -> unit;
  reset : unit -> unit;
}

type host_iface = {
  dma_read : source:Bus.bdf -> addr:int -> len:int -> (bytes, Bus.fault) result;
  dma_write : source:Bus.bdf -> addr:int -> data:bytes -> (unit, Bus.fault) result;
}

type t

val create : name:string -> cfg:Pci_cfg.t -> ops:ops -> t

val name : t -> string
val cfg : t -> Pci_cfg.t
val ops : t -> ops
val set_ops : t -> ops -> unit

val is_attached : t -> bool
val attach_to_host : t -> bdf:Bus.bdf -> host_iface -> unit

val set_spoof_source : t -> Bus.bdf option -> unit
(** Make the device lie about its requester ID on subsequent DMA — the
    attack ACS source validation exists to stop. *)

val dma_read : t -> addr:int -> len:int -> (bytes, Bus.fault) result
(** Device-initiated DMA read.  Silently aborts (returns [Bus_abort]) when
    bus mastering is disabled in the command register. *)

val dma_write : t -> addr:int -> data:bytes -> (unit, Bus.fault) result

val raise_msi : t -> (unit, Bus.fault) result
(** Emit the device's configured MSI message: a DMA write of the message
    data to the message address.  Does nothing (returns [Ok ()]) when MSI
    is disabled or masked in the capability — that mask is the kernel's
    cheap storm defence. *)

val raise_msix : t -> vector:int -> (unit, Bus.fault) result
(** Emit one MSI-X table entry's message.  A message suppressed by the
    per-vector mask bit sets that entry's pending bit instead of going
    out on the bus, so masking one storming vector never silences its
    siblings. *)

val set_msix_mask : t -> vector:int -> bool -> unit
(** Set or clear one MSI-X table entry's mask bit.  Unmasking an entry
    whose pending bit is set clears the bit and sends the entry's
    message, as the spec requires of the function, so an interrupt the
    mask held back is delivered once it lifts. *)

val mmio32 :
  read32:(int -> int) ->
  peek:(int -> int) ->
  write32:(int -> int -> unit) ->
  reset:(unit -> unit) ->
  ops
(** A device with a file of 32-bit registers on BAR 0 and no IO ports.
    An aligned word read goes to [read32], which may have side effects
    (read-to-clear); a sub-word access reads the word with the
    side-effect-free [peek], and a sub-word write merges into it. *)

val no_io : ops
(** Placeholder ops for devices built in two steps (state first, ops
    after); every operation raises [Failure]. *)
