(** SUD's safe PCI device access module (paper §3.2, §4.1; the 2,800-line
    kernel module of Figure 5).

    For every registered PCI device it exports four device files (ctl,
    mmio, dma_coherent, dma_caching — Figure 6), lets the administrator
    chown them to an untrusted UID, and gives the opening driver process
    a {e grant}: a capability through which every hardware access is
    mediated:

    - {b MMIO}: page-aligned BAR windows only, never shared with another
      device;
    - {b IO ports}: added to the process's IO-permission bitmap;
    - {b Config space}: reads pass, writes are filtered — command-register
      bits and cache-line/latency only; BAR rewrites, MSI registers and
      INTx enabling are rejected;
    - {b DMA}: coherent/caching regions carved from physical memory and
      mapped into the device's IOMMU domain at driver-visible IO virtual
      addresses (allocated upward from 0x42430000, as in Figure 9);
    - {b Interrupts}: the kernel owns the MSI capability.  Interrupts are
      forwarded to a sink (the proxy's upcall path) and the vector is
      masked for the duration of the driver's poll, NAPI-style: device
      raises in the window latch in the MSI-X pending-bit array and the
      device sends them when the driver's ack unmasks, so under load one
      upcall covers a batch of frames.  Interrupts arriving {e while
      masked} cannot come from the device (it latches instead) — they
      are DMA writes to the MSI window, and escalate to interrupt
      remapping (Intel) or unmapping the MSI window (AMD) — or are
      logged as a livelock vulnerability on the paper's testbed
      configuration. *)

type t
type grant

val init : Kernel.t -> t

val register_device : t -> Bus.bdf -> unit
(** Export sud device files for this device (initially owned by root). *)

val set_owner : t -> Bus.bdf -> uid:int -> unit
val device_files : t -> Bus.bdf -> string list
(** Paths as in Figure 6; empty if unregistered. *)

val open_device : t -> caps:Quota.caps -> Bus.bdf -> proc:Process.t -> (grant, string) result
(** Checks UID ownership, admits the grant against [caps]' ledger (it
    can be denied), resets the device, disables legacy INTx and creates
    a fresh IOMMU domain.  The grant and everything later acquired
    through it — DMA regions (bytes and IO-page-table pages count
    against the ledger), IO-port ranges, interrupt vectors — are
    entries of [caps], the generation's capability table, so the
    process's death revokes them all.  A table holds one grant: a
    second open against it fails.  With a ledger, IRQ forwarding
    also draws per-queue kick tokens (a dry bucket drops the upcall —
    the masked vector's pending bit latches and the device sends it
    when the ack unmasks, which keeps the device live).  MMIO windows
    need no entry: their accessors check the grant. *)

val release : grant -> unit
(** Revoke the grant's entries in its table, newest first.  The first
    revocation quiesces the device (command register cleared, device
    reset) before any mapping goes; its vectors, DMA regions and IO
    ports follow, and the IOMMU domain is detached last.  The process's
    death does the same through its table. *)

val grant_bdf : grant -> Bus.bdf
val grant_alive : grant -> bool

val grant_caps : grant -> Quota.caps
(** The capability table the grant is recorded in: its generation's. *)

val grant_storms : grant -> int
(** Interrupt-storm escalations attributed to this grant (interrupts
    that kept arriving while a vector was masked), summed over all
    vectors.  The supervisor polls this: growth means the device is
    being driven maliciously. *)

val grant_irqs_delivered : grant -> int
(** Interrupt upcalls actually forwarded to the driver across this
    grant's vectors (masked-window arrivals latch instead).  Divided by
    frames received it gives the NAPI coalescing ratio the batch bench
    gates on. *)

val grant_vector_storms : grant -> queue:int -> int
val vector_masked : grant -> queue:int -> bool

val vector_quarantined : grant -> queue:int -> bool
(** True once a storm on this vector escalated: the vector stays masked
    (kernel-side and in the device's MSI-X table) until the grant is
    torn down; sibling queues keep delivering. *)

val reset_device : t -> Bus.bdf -> (unit, string) result
(** Function-level reset of a registered device with {e no} outstanding
    grant — the recovery step between driver generations.  Stands in for
    PCIe FLR: device model reset, decoding off, INTx disabled.  Fails if
    a live grant still owns the device. *)

(** {1 Mediated access (the driver side of the device files)} *)

val cfg_read : grant -> off:int -> size:int -> int
val cfg_write : grant -> off:int -> size:int -> int -> (unit, string) result
val enable_device : grant -> (unit, string) result
val map_mmio : grant -> bar:int -> (Driver_api.mmio, string) result
val claim_io : grant -> bar:int -> (Driver_api.pio, string) result
val alloc_dma : grant -> bytes:int -> unit -> (Driver_api.dma_region, string) result
(** Map [bytes], rounded up to pages, into the device's IOMMU domain.
    The region is recorded in the grant's table before the mapping's
    CPU charge, so concurrent allocations by one generation are
    admitted against each other; one freed or revoked while that charge
    sleeps is not mapped, and the call fails. *)

val free_dma : grant -> Driver_api.dma_region -> unit
val find_capability : grant -> int -> int option

val msix_vectors : grant -> int
(** Size of the device's MSI-X table ([1] when the device only has
    MSI/INTx) — the ceiling {!setup_irqs} enforces on [n]. *)

val read_driver_mem : grant -> iova:int -> len:int -> (bytes, string) result
(** Read driver-owned DMA memory by the driver's own (IO virtual)
    address, validating that the whole range lies inside the grant's
    mappings — how the proxy pulls packet data out of shared memory
    without trusting the address the driver sent.  [Error] once the
    grant is revoked: a proxy finishing a dead driver's downcall fails
    that one request. *)

val read_driver_mem_into :
  grant -> iova:int -> len:int -> dst:bytes -> dst_off:int -> (unit, string) result
(** Like {!read_driver_mem} but copying into a caller-supplied (pooled)
    buffer, so the per-frame defensive copy allocates nothing. *)

val setup_irqs : grant -> n:int -> sink:(queue:int -> unit) -> (unit, string) result
(** Allocate [n] vectors (queue [i] rides vector [i]), program the
    device's interrupt capability — legacy MSI when [n = 1], MSI-X
    otherwise (fails if the device lacks the capability or its table is
    too small) — whitelist each (source, vector) pair with the interrupt
    remapper, spread vector affinity across cores, and forward queue
    [q]'s interrupts as [sink ~queue:q]. *)

val teardown_irqs : grant -> unit

val irqs_latch : grant -> bool
(** Whether the vectors {!setup_irqs} programmed are MSI-X entries,
    which latch a raise while masked and send it at the unmask.  Legacy
    MSI (one vector) drops such a raise. *)

val irq_ack : ?queue:int -> grant -> unit
(** The driver finished its poll of queue [queue] (default 0): unmask
    the vector.  An interrupt that latched in the MSI-X pending-bit
    array during the poll window is sent by the device as the unmask
    lands ({!Device.set_msix_mask}).  Quarantined vectors stay
    silenced. *)

(** {1 Observability} *)

val iommu_mappings : grant -> (int * int * int * bool) list
(** Figure 9: the device's IO page table as (iova, phys, len, writable)
    runs. *)

val dma_allocations : grant -> (int * int) list
(** The grant's live DMA regions as (iova, len), in allocation order —
    used to label Figure 9's rows. *)

val msi_masks : t -> int
val ir_escalations : t -> int
val livelock_warnings : t -> int
val cfg_denials : t -> int
