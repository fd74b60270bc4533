(** PCI configuration space: a 256-byte register file with the standard
    type-0 header layout and a capability list.

    Devices own one of these; the platform reads BARs out of it to build
    the address map; SUD's safe-PCI module filters driver writes to it.
    All multi-byte accesses are little-endian. *)

type t

(** {1 Standard register offsets}

    [vendor_id] 0x00 (16 bit), [device_id] 0x02 (16), [command] 0x04 (16),
    [status] 0x06 (16), [revision] 0x08 (8), [class_code] 0x09 (24),
    [cache_line] 0x0C (8), [latency_timer] 0x0D (8), [header_type] 0x0E (8),
    [bar0] 0x10 (BARn is [bar0 + 4*n]), [cap_ptr] 0x34 (8),
    [interrupt_line] 0x3C (8), [interrupt_pin] 0x3D (8). *)

val vendor_id : int
val device_id : int
val command : int
val class_code : int
val cache_line : int
val latency_timer : int
val bar0 : int

(** Command register bits *)

val cmd_io_enable : int
val cmd_mem_enable : int
val cmd_bus_master : int
val cmd_intx_disable : int

(** {1 Construction} *)

type bar_kind = Mem of { size : int } | Io of { size : int }

val create :
  vendor:int ->
  device:int ->
  ?class_code:int ->
  bars:bar_kind option array ->
  unit ->
  t
(** A type-0 config space (revision ID 1) with up to 6 BARs.  BAR sizes
    must be powers of two and at least one page for memory BARs (SUD
    requires page-aligned MMIO ranges). *)

(** {1 Raw access (bus master / root complex view)} *)

val read : t -> off:int -> size:int -> int
(** [size] is 1, 2 or 4.  Reads implement BAR sizing: after writing all-1s
    to a BAR, reading returns the size mask. *)

val write : t -> off:int -> size:int -> int -> unit

val bar_kind : t -> int -> bar_kind option
val bar_base : t -> int -> int
(** Programmed base address of BAR [n] (flags masked off). *)

val set_bar_base : t -> int -> int -> unit
val command_has : t -> int -> bool

(** {1 MSI capability} *)

val add_msi_capability : t -> unit
(** Append a 32-bit MSI capability (with per-vector masking) to the
    capability list. *)

val find_capability : t -> int -> int option
(** Offset of the first capability with the given ID, walking the list like
    [pci_find_capability]. *)

val msi_cap_id : int

val msi_enabled : t -> bool
val msi_masked : t -> bool
val msi_address : t -> int
val msi_data : t -> int

val msi_configure : t -> address:int -> data:int -> unit
(** Program address/data and set the enable bit (kernel-side helper). *)

val msi_set_mask : t -> bool -> unit

(** {1 MSI-X capability}

    A vector table of up to 32 entries, each with its
    own message address/data, mask bit and pending bit (16 bytes per
    entry in the modeled layout).  Entries come up masked; the kernel
    unmasks each as it programs it.  The message-control word lives in
    config space (bits 0–10 table size − 1, bit 14 function mask,
    bit 15 enable); the table itself is held beside the register
    file. *)

val msix_cap_id : int

val add_msix_capability : t -> vectors:int -> unit
(** Append an MSI-X capability advertising [vectors] table entries
    (1..32). *)

val msix_table_size : t -> int
(** Number of table entries; 0 when the capability is absent. *)

val msix_enabled : t -> bool
val msix_set_enabled : t -> bool -> unit
val msix_func_masked : t -> bool

val msix_configure : t -> vector:int -> address:int -> data:int -> unit
(** Program one table entry and clear its mask bit. *)

val msix_address : t -> vector:int -> int
val msix_data : t -> vector:int -> int

val msix_set_mask : t -> vector:int -> bool -> unit
(** Set/clear one entry's mask bit.  Unmasking clears the pending bit
    and sends nothing: {!Device.set_msix_mask} is the unmask that
    delivers the pending message. *)

val msix_masked : t -> vector:int -> bool

val msix_pending : t -> vector:int -> bool
(** Whether a message was suppressed by the mask bit since the last
    unmask — the spec's pending-bit array. *)

val msix_set_pending : t -> vector:int -> bool -> unit
