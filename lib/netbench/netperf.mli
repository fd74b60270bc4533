(** netperf-style benchmarks over the simulated gigabit link — the
    Figure 8 harness.

    The rig boots {e two} machines on one simulation engine: the device
    under test (2 cores, the paper's Thinkpad) and a peer (4 cores, the
    paper's Optiplex — deliberately overprovisioned so DUT-side costs are
    what limit throughput).  The DUT's e1000 runs either as a trusted
    in-kernel driver or as an untrusted SUD process; the peer always runs
    in-kernel.

    Sampling follows netperf's stopping rule: fixed intervals until the
    99% confidence half-width is within 5% of the mean. *)

type mode = Kernel_driver | Sud_driver

val mode_name : mode -> string

type result = {
  throughput : float;
  units : string;
  cpu_pct : float;       (** DUT CPU utilization over the measurement *)
  samples : int;
}

type rig = {
  eng : Engine.t;
  dut : Kernel.t;
  peer : Kernel.t;
  dev_dut : Netdev.t;
  dev_peer : Netdev.t;
  nic_dut : E1000_dev.t;
  started : Driver_host.started option;   (** present in SUD mode *)
}

val make_rig :
  ?iommu_mode:Iommu.mode ->
  ?queues:int ->
  ?peer_queues:int ->
  ?dut_cores:int ->
  ?peer_cores:int ->
  ?rate_bps:int ->
  mode ->
  rig
(** Boots both machines, attaches NICs to a shared gigabit medium, brings
    both interfaces up.  Runs the engine internally until setup completes;
    call the benchmarks on the returned rig from outside any fiber.
    [queues] (default 1) sizes the DUT NIC's MSI-X table and hence the
    whole multiqueue datapath; [peer_queues] (default 1) likewise for the
    peer — raise it when the offered load must exceed what a single
    HARD_TX_LOCK'd transmit queue can push (~1.6 Mpps). *)

val tcp_stream : mode -> result
(** Bulk stream from peer to DUT (receive throughput), Mbit/s. *)

val udp_stream_tx : mode -> result
(** DUT floods 64-byte datagrams; Kpackets/s that reached the peer. *)

val udp_stream_rx : mode -> result
(** Peer floods the DUT; Kpackets/s delivered to the DUT socket. *)

val udp_rr : mode -> result
(** 64-byte ping-pong; transactions/s, client on the peer. *)

(** {1 Multiqueue sweep (netperf_mq)} *)

type mq_point = {
  mq_queues : int;
  mq_kpps : float;          (** aggregate Kpackets/s across all flows *)
  mq_cpu_pct : float;
  mq_samples : int;
  mq_rxq_frames : int list; (** device-side frames landed per RX queue *)
}

val mq_flows : int
(** Concurrent UDP flows offered during the sweep (8). *)

val mq_sweep : unit -> mq_point list
(** Aggregate UDP receive throughput with the SUD e1000 on 1, 2, 4 and 8
    MSI-X vectors / uchan ring pairs, 8 cores on the DUT. *)

(** {1 Batch sweep (netperf_batch)} *)

type batch_point = {
  bp_queues : int;
  bp_batch : int;           (** uchan batch limit applied to the DUT *)
  bp_kpps : float;          (** aggregate Kpackets/s across all flows *)
  bp_cpu_pct : float;
  bp_samples : int;
  bp_frames : int;          (** datagrams delivered over the whole run *)
  bp_irqs : int;            (** interrupt upcalls forwarded over the run *)
  bp_cpu_ns_per_frame : float;
      (** DUT CPU busy-ns per delivered datagram over the whole run
          (boot and warmup included — noise at these frame counts).
          The per-frame-cost number the batched datapath exists to
          shrink. *)
}

val udp_batch_rx : queues:int -> batch:int -> batch_point
(** The {!mq_sweep} measurement on a 10 Gb/s medium with the DUT uchan's
    frame-aggregation threshold set to [batch] (1 reproduces the
    per-frame wire traffic), additionally counting IRQ upcalls so
    [bp_irqs / bp_frames] gives the NAPI coalescing ratio. *)

type row = { test : string; driver : string; value : string; cpu : string }

val figure8 : unit -> row list
(** All eight rows of Figure 8 (4 tests x kernel/SUD). *)
