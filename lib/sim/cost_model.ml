type t = {
  syscall_ns : int;
  context_switch_ns : int;
  wakeup_ns : int;
  uchan_msg_ns : int;
  uchan_validate_ns : int;
  uchan_notify_ns : int;
  copy_ns_per_kb : int;
  checksum_ns_per_kb : int;
  irq_deliver_ns : int;
  irq_upcall_ns : int;
  mmio_access_ns : int;
  pio_access_ns : int;
  dma_map_ns : int;
  iotlb_hit_ns : int;
  iommu_walk_ns : int;
  iotlb_flush_ns : int;
  msi_mask_ns : int;
  irte_update_ns : int;
  skb_alloc_ns : int;
  softirq_entry_ns : int;
  netstack_rx_ns : int;
  netstack_tx_ns : int;
  driver_work_ns : int;
  fused_epsilon_ns : int;
}

let default =
  { syscall_ns = 400;
    context_switch_ns = 900;
    wakeup_ns = 4_000;
    uchan_msg_ns = 120;
    uchan_validate_ns = 12;
    uchan_notify_ns = 350;
    copy_ns_per_kb = 240;
    checksum_ns_per_kb = 180;
    irq_deliver_ns = 700;
    irq_upcall_ns = 500;
    mmio_access_ns = 250;
    pio_access_ns = 400;
    dma_map_ns = 180;
    iotlb_hit_ns = 15;
    iommu_walk_ns = 150;
    iotlb_flush_ns = 2_500;
    msi_mask_ns = 600;
    irte_update_ns = 1_800;
    skb_alloc_ns = 300;
    softirq_entry_ns = 1_000;
    netstack_rx_ns = 800;
    netstack_tx_ns = 1_200;
    driver_work_ns = 350;
    fused_epsilon_ns = 40 }

let scaled per_kb bytes =
  if bytes <= 0 then 0 else Int.max 1 ((bytes * per_kb) / 1024)

let copy_cost t ~bytes = scaled t.copy_ns_per_kb bytes
let checksum_cost t ~bytes = scaled t.checksum_ns_per_kb bytes

(* The fused defensive-copy + checksum pass touches the bytes once: the
   stores of the copy and the adds of the checksum overlap in the same
   sweep, so it costs the slower of the two passes plus a small fixed
   epsilon, not their sum. *)
let fused_copy_checksum_cost t ~bytes =
  Int.max (copy_cost t ~bytes) (checksum_cost t ~bytes) + t.fused_epsilon_ns
