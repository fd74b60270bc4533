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
  dma_size : int;
  dma_read : off:int -> len:int -> bytes;
  dma_write : off:int -> bytes -> unit;
}

let dma_get32 r ~off =
  let b = r.dma_read ~off ~len:4 in
  Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF

let dma_set32 r ~off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  r.dma_write ~off b

let dma_set64 r ~off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  r.dma_write ~off b

type pcidev = {
  pd_vendor : int;
  pd_device : int;
  pd_bdf : Bus.bdf;
  pd_cfg_read : off:int -> size:int -> int;
  pd_cfg_write : off:int -> size:int -> int -> (unit, string) result;
  pd_enable : unit -> (unit, string) result;
  pd_map_bar : int -> (mmio, string) result;
  pd_io_bar : int -> (pio, string) result;
  pd_alloc_dma : bytes:int -> unit -> (dma_region, string) result;
  pd_free_dma : dma_region -> unit;
  pd_request_irqs : n:int -> (queue:int -> unit) -> (unit, string) result;
  pd_free_irq : unit -> unit;
  pd_irq_ack : ?queue:int -> unit -> unit;
  pd_msix_vectors : unit -> int;
  pd_find_capability : int -> int option;
}

type env = {
  env_jiffies : unit -> int;
  env_msleep : int -> unit;
  env_usleep : int -> unit;
  env_udelay : int -> unit;
  env_may_sleep : unit -> bool;
  env_printk : string -> unit;
  env_spawn : name:string -> (unit -> unit) -> unit;
  env_consume : int -> unit;
}

type txbuf = {
  txb_addr : int;
  txb_len : int;
  txb_token : int;
  txb_read : unit -> bytes;
}

type net_callbacks = {
  nc_rx : queue:int -> addr:int -> len:int -> unit;
  nc_tx_free : queue:int -> token:int -> unit;
  nc_tx_done : queue:int -> unit;
  nc_carrier : bool -> unit;
}

type net_instance = {
  ni_mac : bytes;
  ni_tx_queues : int;
  ni_open : unit -> (unit, string) result;
  ni_stop : unit -> unit;
  ni_xmit : queue:int -> txbuf -> [ `Ok | `Busy ];
  ni_ioctl : cmd:int -> arg:int -> (int, string) result;
}

type net_driver = {
  nd_name : string;
  nd_ids : (int * int) list;
  nd_probe : env -> pcidev -> net_callbacks -> (net_instance, string) result;
}

type wifi_callbacks = {
  wc_net : net_callbacks;
  wc_scan_done : int list -> unit;
  wc_bss_changed : int -> unit;
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
  au_write : bytes -> int;
  au_set_volume : int -> (unit, string) result;
  au_get_volume : unit -> (int, string) result;
}

type audio_driver = {
  ad_name : string;
  ad_ids : (int * int) list;
  ad_probe : env -> pcidev -> audio_callbacks -> (audio_instance, string) result;
}

type block_instance = {
  bl_capacity : unit -> int;
  bl_read : lba:int -> count:int -> (bytes, string) result;
  bl_write : lba:int -> bytes -> (unit, string) result;
}

(* ---- sud-blk: asynchronous multiqueue block drivers (NVMe-style) ---- *)

type blk_callbacks = {
  bc_complete : queue:int -> tag:int -> status:int -> unit;
      (** Completion for a previously accepted submission.  [tag] echoes
          the submit's idempotency tag; [status] 0 = success. *)
}

type blkdev_instance = {
  bi_capacity : int;             (* 512-byte sectors *)
  bi_queues : int;               (* hardware queue pairs the driver set up *)
  bi_submit :
    queue:int -> tag:int -> op:int -> lba:int -> count:int -> addr:int ->
    [ `Ok | `Busy ];
      (** Queue one request.  [op] is a [Proxy_proto.blk_op_*] value
          (possibly OR'd with [blk_op_fua]); [addr] is the shared-buffer
          DMA address, meaningless for flushes.  [`Busy] means the
          submission queue is full — resubmit after a completion. *)
}

type blk_driver = {
  bd_name : string;
  bd_ids : (int * int) list;
  bd_probe : env -> pcidev -> blk_callbacks -> (blkdev_instance, string) result;
}

type input_callbacks = { ic_key : int -> unit }

type usb_dev_handle = {
  ud_address : int;
  ud_class : int;
  ud_control : setup:bytes -> dir_in:bool -> len:int -> (bytes, string) result;
  ud_bulk_out : ep:int -> bytes -> (unit, string) result;
  ud_bulk_in : ep:int -> len:int -> (bytes, string) result;
  ud_interrupt_in : ep:int -> len:int -> (bytes option, string) result;
}

type usb_host_instance = {
  uh_enumerate : unit -> (usb_dev_handle list, string) result;
}

type usb_host_driver = {
  ud_name : string;
  ud_ids : (int * int) list;
  ud_probe : env -> pcidev -> (usb_host_instance, string) result;
}

let charge cell ns =
  match Fiber.self () with
  | _ -> Cpu.consume_cell cell ns
  | exception Failure _ -> Cpu.account_cell cell ns
