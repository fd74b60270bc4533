(** Toolkit for building malicious e1000 drivers.

    A malicious driver looks like a normal driver to SUD — it probes, maps
    its BAR, allocates DMA memory and registers a MAC — but its [ni_open]
    runs an attack payload with full access to the driver-visible
    resources.  The attacks in {!Attacks} are built from this. *)

type toolkit = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.net_callbacks;
  mmio : Driver_api.mmio;
  ring : Driver_api.dma_region;    (** one page of descriptors *)
  buf : Driver_api.dma_region;     (** one page of payload scratch *)
}

val reg_write : toolkit -> int -> int -> unit

val dma_read_via_tx : toolkit -> target:int -> len:int -> unit
(** Program a TX descriptor whose buffer address is [target]: the device
    will DMA-read that address and put the bytes on the wire —
    exfiltration if the IOMMU lets it through. *)

val dma_write_via_rx : toolkit -> target:int -> unit
(** Program an RX descriptor whose buffer address is [target] and enable
    the receiver: the next incoming frame is DMA-written over [target]. *)

val driver :
  ?name:string ->
  on_open:(toolkit -> (unit, string) result) ->
  unit ->
  Driver_api.net_driver
(** A driver whose probe succeeds innocuously and whose open runs
    [on_open]. *)
