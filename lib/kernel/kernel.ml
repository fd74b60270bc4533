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

let mem_size = 256 * 1024 * 1024

let boot ?(cores = 2) ?(iommu_mode = Iommu.Intel_vtd { interrupt_remapping = false })
    ?(cost_model = Cost_model.default) ?(enable_acs = true) eng =
  let cpu = Cpu.create eng ~cores cost_model in
  let mem = Phys_mem.create ~size:mem_size in
  let iommu = Iommu.create ~mode:iommu_mode () in
  let ioports = Ioport.create () in
  let topo = Pci_topology.create ~mem ~iommu ~ioports () in
  let klog = Klog.create eng in
  let preempt = Preempt.create () in
  let irq = Irq.create cpu preempt klog in
  let procs = Process.create_table eng cpu in
  let net = Netstack.create eng cpu preempt klog procs in
  let blk = Blkdev.registry_create () in
  let sysfs = Sysfs.create () in
  Pci_topology.set_msi_sink topo (fun ~source ~vector -> Irq.deliver irq ~source ~vector);
  (* DMA translation is device-side work: account it against utilization
     without blocking any fiber (devices run in pure event callbacks). *)
  let iommu_cell = Cpu.cell cpu "hw:iommu" in
  Pci_topology.set_dma_charge topo (fun how ->
      let ns =
        match how with
        | `Hit -> cost_model.Cost_model.iotlb_hit_ns
        | `Walk -> cost_model.Cost_model.iommu_walk_ns
        | `Bypass -> 0
      in
      if ns > 0 then Cpu.account_cell iommu_cell ns);
  if enable_acs then Pci_topology.enable_acs_everywhere topo;
  (* Observability: spans are stamped with simulated time, and the
     registry is browsable through sysfs like /sys/kernel/* files. *)
  Sud_obs.Trace.set_clock (fun () -> Engine.now eng);
  Sysfs.register_file sysfs ~path:"/sys/kernel/sud_metrics" ~read:(fun () ->
      Sud_obs.Metrics.render_table (Sud_obs.Metrics.snapshot ()));
  Sysfs.register_file sysfs ~path:"/sys/kernel/sud_metrics.json" ~read:(fun () ->
      Sud_obs.Metrics.to_json (Sud_obs.Metrics.snapshot ()));
  Klog.printk klog Klog.Info "kernel: booted with %d cores, %d MiB RAM" cores
    (mem_size / 1024 / 1024);
  { eng; cpu; mem; iommu; ioports; topo; irq; preempt; net; blk; sysfs; klog; procs }

let attach_pci t ?switch dev =
  let sw = match switch with Some s -> s | None -> Pci_topology.root_switch t.topo in
  (* A newly created switch post-boot must still honour the ACS policy. *)
  let bdf = Pci_topology.attach t.topo ~switch:sw dev in
  let cfg = Device.cfg dev in
  let vendor = Pci_cfg.read cfg ~off:Pci_cfg.vendor_id ~size:2 in
  let device = Pci_cfg.read cfg ~off:Pci_cfg.device_id ~size:2 in
  let class_code = Pci_cfg.read cfg ~off:Pci_cfg.class_code ~size:1 lsl 16 in
  ignore (Sysfs.add_pci_device t.sysfs ~bdf ~vendor ~device ~class_code : Sysfs.entry);
  Klog.printk t.klog Klog.Info "pci: %s %04x:%04x at %s" (Device.name dev) vendor device
    (Bus.string_of_bdf bdf);
  bdf

let run ?(max_ms = 30_000) t main =
  let result = ref None in
  ignore
    (Process.spawn_fiber (Process.kernel_process t.procs) ~name:"main" (fun () ->
         result := Some (main ());
         Engine.stop t.eng)
     : Fiber.t);
  Engine.run ~max_time:(Engine.now t.eng + (max_ms * 1_000_000)) t.eng;
  match !result with
  | Some r -> r
  | None -> failwith (Printf.sprintf "Kernel.run: main did not return within %d ms" max_ms)
