(** The composed machine + kernel: one value holding the simulation
    engine, CPU pool, physical memory, PCIe fabric, IOMMU, interrupt
    layer, network stack, process table, sysfs and the kernel log.

    [boot] wires everything the way SUD expects: the topology's MSI sink
    feeds the IRQ layer, and ACS is enabled on every switch. *)

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  mem : Phys_mem.t;
  iommu : Iommu.t;
  ioports : Ioport.t;
  topo : Pci_topology.t;
  irq : Irq.t;
  preempt : Preempt.t;
  net : Netstack.t;
  blk : Blkdev.registry;
  sysfs : Sysfs.t;
  klog : Klog.t;
  procs : Process.table;
}

val boot :
  ?cores:int ->
  ?iommu_mode:Iommu.mode ->
  ?enable_acs:bool ->
  Engine.t ->
  t
(** Defaults: 2 cores (the paper's testbed), 256 MiB RAM, VT-d {e without}
    interrupt remapping (again the paper's testbed), ACS on. *)

val attach_pci : t -> ?switch:Pci_topology.switch -> Device.t -> Bus.bdf
(** Attach a device to the fabric (root ports when [switch] is omitted)
    and publish it in sysfs. *)

val run : ?max_ms:int -> t -> (unit -> 'a) -> 'a
(** [run k main] runs [main] as a fiber of the kernel process and drives
    the engine until [main] returns.  The engine stops at the event in
    which it returns: timers, watchdogs and fibers that [main] leaves
    behind stay queued and never fire, so [Engine.steps] and
    [Engine.trace_hash] afterwards describe exactly the run up to the
    result.  [max_ms] (simulated, default 30 000) bounds the run.
    @raise Failure if [main] has not returned within it. *)
