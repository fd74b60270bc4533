(** The security evaluation (paper §5.2): run each attack in a controlled
    world and report whether SUD contained it.

    Outcomes are honest about the paper's own findings: on the testbed
    configuration (VT-d {e without} interrupt remapping), the DMA-to-MSI
    interrupt storm is detected but {e not} containable — exactly the
    vulnerability the authors report — while interrupt remapping or an
    AMD IOMMU contains it. *)

type outcome = {
  attack : string;       (** e.g. "DMA read (exfiltration)" *)
  config : string;       (** hardware/SUD configuration the attack ran under *)
  contained : bool;
  evidence : string;     (** what the run observed *)
}

val dma_read_exfiltration : sud:bool -> outcome
(** TX descriptor aimed at a kernel secret.  [sud:false] runs the same
    malicious driver trusted in-kernel — the baseline where it succeeds. *)

val dma_straddle : unit -> outcome
(** TX descriptor starting 16 bytes before the end of the driver's own
    DMA buffer and running into the ungranted next page, with the kernel
    secret on the physical page after the buffer's. *)

val dma_write_corruption : unit -> outcome
(** RX descriptor aimed at kernel memory; a peer frame pulls the trigger. *)

val peer_to_peer : acs:bool -> outcome
(** DMA into a sibling device's BAR, with and without PCIe ACS. *)

val source_spoofing : validation:bool -> outcome
(** Requester-ID forgery, with and without ACS source validation. *)

val interrupt_storm : unit -> outcome
(** Driver never finishes interrupt processing while its device floods. *)

val msi_dma_storm : iommu:Iommu.mode -> outcome
(** DMA writes to the MSI window forging interrupts, under the three
    hardware configurations of §5.2/§6. *)

val toctou : defensive_copy:bool -> outcome
(** Shared-buffer rewrite between firewall verdict and delivery. *)

val driver_hang : unit -> outcome
(** Unresponsive driver: the synchronous upcall must stay abortable. *)

val config_space : unit -> outcome
(** BAR/MSI/INTx rewrites through the filtered config interface. *)

val allocation_bomb : unit -> outcome
(** Unbounded DMA allocation against an rlimit. *)

val io_port_scan : unit -> outcome
(** A PIO driver probing ports outside its granted BAR range (the IOPB
    defence, §3.2.1). *)

val downcall_flood : unit -> outcome
(** uchan spam: the flood's kernel work runs in the flooding driver's
    own kernel entries, so bystanders stay schedulable. *)

val kill_and_restart : unit -> outcome
(** A malicious first driver generation fires DMA at a kernel secret;
    the {!Supervisor} must detect the IOMMU fault, kill the driver and
    restart an honest one autonomously — traffic must flow again.  The
    evidence carries the measured detection and recovery latencies. *)

val driver_hang_recovery : unit -> outcome
(** Wedge the driver's main upcall loop mid-flight; only the
    supervisor's heartbeat can notice.  Recovery must restore traffic. *)

val crash_loop_quarantine : unit -> outcome
(** Kill every fresh generation until the restart budget is exhausted;
    the supervisor must quarantine the device (netdev gone, sysfs
    [sud_state] = ["quarantined"]). *)

val all : unit -> outcome list
(** Every attack in every interesting configuration — the security table
    regenerated by the bench harness. *)
