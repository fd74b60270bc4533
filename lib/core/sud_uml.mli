(** SUD-UML: the user-space kernel-environment library (paper §3.3;
    5,000 lines in Figure 5).

    Runs inside the untrusted driver process.  It gives an unmodified
    driver the kernel API it expects ({!Driver_api.env} and
    {!Driver_api.pcidev}), implemented over SUD's safe device files
    (config access, MMIO/IO mappings, DMA regions, MSI) and the uchan
    (upcall dispatch, batched downcalls).

    Upcall dispatch follows the paper's §4.2 optimization: callbacks that
    may not block (packet transmit, interrupt) run inline in the idle
    loop; potentially-blocking callbacks (open, stop, ioctl) are handed
    to a pool of worker fibers. *)

type t

val create :
  Kernel.t ->
  proc:Process.t ->
  grant:Safe_pci.grant ->
  chan:Uchan.t ->
  pool:Bufpool.t ->
  t

val serve_net : t -> Driver_api.net_driver -> unit
(** Probe the driver and run the upcall dispatch loop until the channel
    closes or the process dies.  Call from the driver process's main
    fiber. *)

val serve_wifi : t -> Driver_api.wifi_driver -> unit
(** Like {!serve_net}, plus the 802.11 management upcalls; mirrors the
    supported-rate set to the kernel at registration. *)

val serve_audio : t -> Driver_api.audio_driver -> unit

val serve_blk : t -> Driver_api.blk_driver -> unit
(** Probe an asynchronous (NVMe-style) block driver, register the device
    ([down_blkdev_register] carries capacity and queue count) and serve
    the submission upcalls.  Submissions the hardware queue refuses park
    in a per-ring FIFO retried on every completion, so ordering is
    preserved end to end.

    On MSI-X ({!Safe_pci.irqs_latch}) interrupts are acked once per busy
    period.  The driver's ack, and the one the dispatch loop owes after
    its handler, are only recorded: the vector stays masked, and the
    ring's fiber re-runs the driver's interrupt handler after every
    submission it dispatches, so the completions that land meanwhile
    are reaped with no interrupt.  Once no upcall waits on the ring
    ({!Uchan.pending}) the fiber polls once more and sends one
    [down_irq_ack]; a completion after that poll latches, and the
    unmask sends it.  A single-vector device on legacy MSI, which
    latches nothing, acks at once. *)

val serve_usb : t -> Driver_api.usb_host_driver -> unit
(** Probe the host controller, enumerate its bus, bind the host
    instance's class drivers (mass storage -> block proxy; HID keyboard
    -> input downcalls) and serve block upcalls. *)

val upcalls_handled : t -> int
val worker_dispatches : t -> int
(** Upcalls that were routed to a worker fiber because they may block. *)
