(** The Linux-driver-facing API ("kenv").

    Device drivers in [lib/drivers/] are written once against these
    records — registers via {!mmio}/{!pio}, DMA-capable memory via
    {!dma_region}, config space, IRQs, timers — exactly the surface a
    Linux PCI driver uses.  The {e same driver code} then runs in two
    environments, which is the paper's headline property:

    - {!Kenv_native} builds a [pcidev] with direct hardware access for a
      trusted in-kernel driver (the baseline in Figure 8);
    - {!Sud_uml} builds one whose every operation goes through SUD's safe
      PCI device files and uchan downcalls, for an untrusted user-space
      driver.

    All accessors charge CPU time to the calling context so the two
    environments are comparable in the benchmarks. *)

type mmio = {
  mmio_read : off:int -> size:int -> int;
  mmio_write : off:int -> size:int -> int -> unit;
}

type pio = {
  pio_read : off:int -> size:int -> int;
  pio_write : off:int -> size:int -> int -> unit;
}

type dma_region = {
  dma_addr : int;
      (** the bus address to program into the device (an IO virtual
          address under SUD, a physical address in-kernel) *)
  dma_size : int;
  dma_read : off:int -> len:int -> bytes;
  dma_write : off:int -> bytes -> unit;
}

(** 32/64-bit little-endian helpers over a [dma_region]. *)

val dma_get32 : dma_region -> off:int -> int
val dma_set32 : dma_region -> off:int -> int -> unit
val dma_set64 : dma_region -> off:int -> int64 -> unit

type pcidev = {
  pd_vendor : int;
  pd_device : int;
  pd_bdf : Bus.bdf;
  pd_cfg_read : off:int -> size:int -> int;
  pd_cfg_write : off:int -> size:int -> int -> (unit, string) result;
  pd_enable : unit -> (unit, string) result;
      (** pci_enable_device: memory/IO decoding + bus mastering *)
  pd_map_bar : int -> (mmio, string) result;
  pd_io_bar : int -> (pio, string) result;
  pd_alloc_dma : bytes:int -> unit -> (dma_region, string) result;
  pd_free_dma : dma_region -> unit;
  pd_request_irqs : n:int -> (queue:int -> unit) -> (unit, string) result;
      (** Allocate [n] MSI-X vectors (one per queue) and install one
          handler over the block; the handler receives the queue index.
          Fails when the device's MSI-X table is too small or the
          environment can only deliver one vector. *)
  pd_free_irq : unit -> unit;
  pd_irq_ack : ?queue:int -> unit -> unit;
      (** Tell the environment interrupt processing finished on [queue]
          (default [0]; under SUD this unmasks that vector, for a
          sud-blk driver on MSI-X once its upcall ring has drained;
          in-kernel it is a no-op). *)
  pd_msix_vectors : unit -> int;
      (** How many distinct vectors this environment can deliver to the
          driver: the device's MSI-X table size, further clamped under
          SUD by the uchan queue count.  [1] when only MSI/INTx is
          available. *)
  pd_find_capability : int -> int option;
}

type env = {
  env_jiffies : unit -> int;        (** milliseconds since boot *)
  env_msleep : int -> unit;         (** sleep (fiber) for ms *)
  env_usleep : int -> unit;         (** sleep (fiber) for us — usleep_range *)
  env_udelay : int -> unit;         (** busy-wait: charges CPU for us *)
  env_may_sleep : unit -> bool;
      (** [in_atomic()] guard: false inside a native top half, always true
          for a SUD driver — its handlers run in process context, the
          paper's reason user-space drivers may block where in-kernel
          interrupt handlers cannot *)
  env_printk : string -> unit;
  env_spawn : name:string -> (unit -> unit) -> unit;
      (** a kernel-thread-like worker in the driver's context *)
  env_consume : int -> unit;        (** charge ns of driver CPU work *)
}

(** {1 Driver classes}

    Callback records are handed to the driver at probe time (they stand in
    for kernel functions like [netif_rx]); instance records are what probe
    returns (they stand in for the ops structs the driver registers). *)

type txbuf = {
  txb_addr : int;
      (** bus address of the frame payload: DMA drivers program this
          straight into a descriptor — no data copy in the driver *)
  txb_len : int;
  txb_token : int;
      (** opaque; hand back via [nc_tx_free] once the device is done *)
  txb_read : unit -> bytes;
      (** materialize the bytes — for programmed-IO drivers (ne2k) that
          must copy the frame into card memory themselves *)
}

type net_callbacks = {
  nc_rx : queue:int -> addr:int -> len:int -> unit;
      (** netif_rx: [addr] must lie inside one of the driver's DMA
          regions; the environment (proxy) validates and copies out.
          [queue] is the RX queue the frame arrived on — under SUD it
          selects the uchan ring the downcall rides.  Single-queue
          drivers pass [~queue:0]. *)
  nc_tx_free : queue:int -> token:int -> unit;
      (** the device finished transmitting this [txbuf] on [queue] *)
  nc_tx_done : queue:int -> unit;
      (** netif_wake_subqueue on [queue] *)
  nc_carrier : bool -> unit;        (** netif_carrier_on/off *)
}

type net_instance = {
  ni_mac : bytes;
  ni_tx_queues : int;
      (** TX/RX queue pairs this instance operates (>= 1); the
          environment sizes the netdev and uchan rings to match *)
  ni_open : unit -> (unit, string) result;
  ni_stop : unit -> unit;
  ni_xmit : queue:int -> txbuf -> [ `Ok | `Busy ];
      (** enqueue on TX [queue] *)
  ni_ioctl : cmd:int -> arg:int -> (int, string) result;
}

type net_driver = {
  nd_name : string;
  nd_ids : (int * int) list;
  nd_probe : env -> pcidev -> net_callbacks -> (net_instance, string) result;
}

type wifi_callbacks = {
  wc_net : net_callbacks;
  wc_scan_done : int list -> unit;  (** visible BSSIDs *)
  wc_bss_changed : int -> unit;     (** now associated with this BSSID *)
}

type wifi_instance = {
  wi_net : net_instance;
  wi_scan : unit -> (unit, string) result;
  wi_associate : bssid:int -> (unit, string) result;
  wi_bitrates : unit -> int list;
  wi_set_rate : int -> (unit, string) result;
}

type wifi_driver = {
  wd_name : string;
  wd_ids : (int * int) list;
  wd_probe : env -> pcidev -> wifi_callbacks -> (wifi_instance, string) result;
}

type audio_callbacks = { ac_period_elapsed : unit -> unit }

type audio_instance = {
  au_start : unit -> (unit, string) result;
  au_stop : unit -> unit;
  au_write : bytes -> int;          (** enqueue PCM; returns bytes accepted *)
  au_set_volume : int -> (unit, string) result;
  au_get_volume : unit -> (int, string) result;
}

type audio_driver = {
  ad_name : string;
  ad_ids : (int * int) list;
  ad_probe : env -> pcidev -> audio_callbacks -> (audio_instance, string) result;
}

type block_instance = {
  bl_capacity : unit -> int;        (** in 512-byte blocks *)
  bl_read : lba:int -> count:int -> (bytes, string) result;
  bl_write : lba:int -> bytes -> (unit, string) result;
}

(** {2 sud-blk: asynchronous multiqueue block drivers}

    Unlike the synchronous [block_instance] surface USB mass storage
    uses, an NVMe-style driver owns hardware queue pairs and completes
    requests out of band.  Requests are identified by the {e idempotency
    tag} the block proxy assigns — monotonically increasing per device
    and preserved across driver restarts, so a replayed request carries
    the same identity and cannot double-apply. *)

type blk_callbacks = {
  bc_complete : queue:int -> tag:int -> status:int -> unit;
      (** completion for a previously accepted submission; [status] 0 =
          success *)
}

type blkdev_instance = {
  bi_capacity : int;                (** in 512-byte sectors *)
  bi_queues : int;                  (** hardware queue pairs set up *)
  bi_submit :
    queue:int -> tag:int -> op:int -> lba:int -> count:int -> addr:int ->
    [ `Ok | `Busy ];
      (** queue one request; [op] is a [Proxy_proto.blk_op_*] value
          (writes may carry the [blk_op_fua] flag bit), [addr] the
          shared-buffer bus address (unused for flushes).  [`Busy] =
          submission queue full, resubmit after a completion. *)
}

type blk_driver = {
  bd_name : string;
  bd_ids : (int * int) list;
  bd_probe : env -> pcidev -> blk_callbacks -> (blkdev_instance, string) result;
}

type input_callbacks = { ic_key : int -> unit }

type usb_dev_handle = {
  ud_address : int;
  ud_class : int;                   (** 0x03 HID, 0x08 mass storage *)
  ud_control : setup:bytes -> dir_in:bool -> len:int -> (bytes, string) result;
  ud_bulk_out : ep:int -> bytes -> (unit, string) result;
  ud_bulk_in : ep:int -> len:int -> (bytes, string) result;
  ud_interrupt_in : ep:int -> len:int -> (bytes option, string) result;
}

type usb_host_instance = {
  uh_enumerate : unit -> (usb_dev_handle list, string) result;
      (** reset ports, assign addresses, read device descriptors *)
  uh_storage : usb_dev_handle -> (block_instance, string) result;
      (** usb-storage: bind a mass-storage device as a block instance *)
  uh_keyboard : usb_dev_handle -> input_callbacks -> unit;
      (** usb-hid: poll a keyboard and feed its keys to the callbacks *)
}

type usb_host_driver = {
  ud_name : string;
  ud_ids : (int * int) list;
  ud_probe : env -> pcidev -> (usb_host_instance, string) result;
}
