(** Calibrated CPU cost parameters (nanoseconds of CPU time).

    The paper's testbed is a 1.4 GHz dual-core Thinkpad X301; the defaults
    below are calibrated so the Figure 8 benchmarks reproduce the paper's
    *shape*: identical throughput on streaming workloads, 8–30% CPU
    overhead for the untrusted driver, roughly 2x CPU on UDP_RR driven by
    the ~4 us process wakeup latency the authors call out. *)

type t = {
  syscall_ns : int;           (** user/kernel crossing *)
  wakeup_ns : int;            (** waking a sleeping process (paper: ~4 us) *)
  uchan_msg_ns : int;         (** marshal + ring slot handling, per message *)
  uchan_validate_ns : int;    (** protocol-conformance adjudication per u2k slot
                                  (epoch + seq + reply matching + kind DFA) *)
  uchan_notify_ns : int;      (** kicking the uchan file descriptor *)
  copy_ns_per_kb : int;       (** memcpy *)
  checksum_ns_per_kb : int;   (** internet checksum (and the fused copy+csum) *)
  irq_deliver_ns : int;       (** APIC delivery + in-kernel dispatch *)
  irq_upcall_ns : int;        (** extra cost to forward an IRQ as an upcall *)
  mmio_access_ns : int;       (** one uncached MMIO register read/write *)
  pio_access_ns : int;        (** one legacy IO-port access *)
  dma_map_ns : int;           (** inserting one IOMMU mapping *)
  iotlb_hit_ns : int;         (** DMA translation served from the IOTLB *)
  iommu_walk_ns : int;        (** DMA translation paying the two-level walk *)
  iotlb_flush_ns : int;       (** IOTLB invalidation (paper: prohibitive) *)
  msi_mask_ns : int;          (** toggling the MSI mask bit via PCI config *)
  irte_update_ns : int;       (** rewriting an interrupt-remapping entry *)
  skb_alloc_ns : int;         (** allocating an sk_buff *)
  softirq_entry_ns : int;     (** entering softirq context, paid once per burst *)
  netstack_rx_ns : int;       (** per-packet protocol receive processing *)
  netstack_tx_ns : int;       (** per-packet protocol transmit processing *)
  fused_epsilon_ns : int;     (** fixed overhead of the fused copy+checksum sweep *)
}

val default : t

val copy_cost : t -> bytes:int -> int
(** CPU cost of copying [bytes]; at least 1 ns for a non-empty copy. *)

val checksum_cost : t -> bytes:int -> int

val fused_copy_checksum_cost : t -> bytes:int -> int
(** CPU cost of the single-pass defensive-copy + checksum sweep:
    [max (copy, checksum) + fused_epsilon_ns].  The two passes touch the
    same bytes, so fusing them costs the slower pass plus a fixed
    epsilon rather than their sum. *)
