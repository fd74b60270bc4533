(** IOMMU: per-device IO page tables, translation, IOTLB accounting,
    interrupt remapping.

    Models the two vendor variants the paper discusses:

    - {b Intel VT-d}: every IO page table carries an {e implicit identity
      mapping for the MSI address window} (0xFEE00000–0xFEF00000), so a
      device can always write there — the weakness that left the authors'
      testbed open to DMA-generated interrupt storms.  Optional interrupt
      remapping filters those messages by (source, vector).
    - {b AMD IOMMU}: no implicit MSI mapping; MSI writes pass only if the
      domain explicitly maps the window, so unmapping it silences a rogue
      device.

    Page tables are real two-level structures (10+10+12 bit split over a
    4 GiB IO virtual space); Figure 9 is produced by walking them. *)

type mode =
  | Intel_vtd of { interrupt_remapping : bool }
  | Amd_vi

type t
type domain

val create : mode:mode -> unit -> t
val mode : t -> mode

val attach : t -> source:Bus.bdf -> domain
(** Get-or-create the translation domain for a device.  A fresh domain maps
    nothing (and on AMD, not even the MSI window). *)

val detach : t -> source:Bus.bdf -> unit
(** Remove the device's domain; subsequent DMA faults. *)

val domain_of : t -> source:Bus.bdf -> domain option

val map : t -> domain -> iova:int -> phys:int -> len:int -> writable:bool -> unit
(** Insert 4 KiB-granular mappings.  [iova], [phys] and [len] must be
    page-aligned.  Raises [Invalid_argument] on misalignment or when
    overwriting an existing mapping with a different target. *)

val unmap : t -> domain -> iova:int -> len:int -> unit
(** Remove mappings; missing entries are ignored.  Queues an IOTLB
    invalidation (visible in {!iotlb_flushes}). *)

val translate : t -> source:Bus.bdf -> addr:int -> dir:Bus.dma_dir -> [ `Phys of int | `Msi | `Fault of Bus.fault ]
(** Translate one IO virtual address for the given requester.  [`Msi] means
    the write landed in the MSI window and should be handed to the
    interrupt controller (subject to remapping). *)

val translate_info :
  t -> source:Bus.bdf -> addr:int -> dir:Bus.dma_dir ->
  [ `Phys of int | `Msi | `Fault of Bus.fault ] * [ `Hit | `Walk | `Bypass ]
(** {!translate} plus how the answer was produced, for cost accounting:
    [`Hit] came from the IOTLB, [`Walk] paid the two-level table walk,
    [`Bypass] skipped translation entirely (passthrough / implicit MSI). *)

(** {1 IOTLB}

    A direct-mapped software IOTLB of {!iotlb_slots} entries keyed on
    [(source, iova_page)], consulted before the page-table walk.  Entries
    cache the pte {e including} its writable bit.  The cache is scrubbed on
    {!unmap}, {!detach} and {!iotlb_flush} — a hit after any of those would
    be a stale translation, i.e. a containment hole (the stale-translation
    window the driver-isolation SoK warns about). *)

val iotlb_slots : int

(** {1 Observability}

    All IOMMU counters live in the {!Sud_obs.Metrics} registry under
    subsystem ["iommu"]; the handles are exposed so callers read them
    directly.  With tracing enabled, [map]/[unmap] emit spans and every
    translation fault emits an ["iommu"/"fault"] span parented to the
    uchan RPC that provoked it (ambient span, or the last issued RPC for
    DMA fired from engine callbacks) and remembered under
    ["iommu.fault.last:<bdf>"] for the supervisor to pick up. *)

type metrics = {
  im_hits : Sud_obs.Metrics.gauge;
  im_misses : Sud_obs.Metrics.gauge;
  im_evictions : Sud_obs.Metrics.counter;
  im_flushes : Sud_obs.Metrics.counter;
  im_faults : Sud_obs.Metrics.counter;
  im_ir_writes : Sud_obs.Metrics.counter;  (** remap-table writes *)
}

val metrics : t -> metrics

val mappings : domain -> (int * int * int * bool) list
(** [(iova, phys, len, writable)] runs, contiguous entries merged, sorted
    by iova — the paper's Figure 9 listing.  The Intel implicit MSI mapping
    is {e not} included (it lives outside the page table); callers that
    want Figure 9's last row add it according to {!mode}. *)

val iotlb_flush : t -> domain -> unit

val faults : t -> Bus.fault list
(** Accumulated translation faults, oldest first. *)

(** {1 Interrupt remapping (VT-d with [interrupt_remapping = true])} *)

val ir_available : t -> bool

val ir_allow : t -> source:Bus.bdf -> vector:int -> unit
(** Install a remap-table entry letting [source] raise [vector]. *)

val ir_block_source : t -> source:Bus.bdf -> unit
(** Drop every entry for [source] — "disable MSI interrupts from that
    device altogether" (paper §3.2.2). *)

val ir_check : t -> source:Bus.bdf -> vector:int -> bool
(** Whether the remap table passes this message.  Always true when
    interrupt remapping is unavailable (the testbed's weakness). *)

