let env (k : Kernel.t) ~label =
  let cell = Cpu.cell k.Kernel.cpu label in
  let kernel = Process.kernel_process k.Kernel.procs in
  { Driver_api.env_jiffies = (fun () -> Engine.now k.Kernel.eng / 1_000_000);
    env_msleep =
      (fun ms -> ignore (Fiber.sleep k.Kernel.eng (ms * 1_000_000) : Fiber.wake));
    env_usleep = (fun us -> ignore (Fiber.sleep k.Kernel.eng (us * 1_000) : Fiber.wake));
    env_may_sleep = (fun () -> not (Preempt.in_atomic k.Kernel.preempt));
    env_udelay = (fun us -> Driver_api.charge cell (us * 1_000));
    env_printk = (fun s -> Klog.printk k.Kernel.klog Klog.Info "%s: %s" label s);
    env_spawn =
      (fun ~name fn -> ignore (Process.spawn_fiber kernel ~name fn : Fiber.t));
    env_consume = (fun ns -> Driver_api.charge cell ns) }

let pcidev (k : Kernel.t) bdf ~label =
  match Pci_topology.find_device k.Kernel.topo bdf with
  | None -> Error "no such PCI device"
  | Some dev ->
    let topo = k.Kernel.topo in
    let cpu = k.Kernel.cpu in
    let m = Cpu.cost_model cpu in
    let cell = Cpu.cell cpu label in
    let charge ns = Driver_api.charge cell ns in
    let cfg = Device.cfg dev in
    let vectors = ref None in
    let cfg_read ~off ~size =
      charge m.Cost_model.pio_access_ns;
      Pci_topology.cfg_read topo bdf ~off ~size
    in
    let cfg_write ~off ~size v =
      charge m.Cost_model.pio_access_ns;
      Pci_topology.cfg_write topo bdf ~off ~size v;
      Ok ()
    in
    let enable () =
      let cur = Pci_topology.cfg_read topo bdf ~off:Pci_cfg.command ~size:2 in
      Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2
        (cur lor Pci_cfg.cmd_io_enable lor Pci_cfg.cmd_mem_enable lor Pci_cfg.cmd_bus_master
         lor Pci_cfg.cmd_intx_disable);
      Ok ()
    in
    let map_bar bar =
      match Pci_topology.bar_region topo bdf ~bar with
      | None -> Error (Printf.sprintf "BAR %d is not a memory BAR" bar)
      | Some (base, size) ->
        Ok
          { Driver_api.mmio_read =
              (fun ~off ~size:sz ->
                 if off < 0 || off + sz > size then invalid_arg "mmio read out of range";
                 charge m.Cost_model.mmio_access_ns;
                 Pci_topology.mmio_read topo ~addr:(base + off) ~size:sz);
            mmio_write =
              (fun ~off ~size:sz v ->
                 if off < 0 || off + sz > size then invalid_arg "mmio write out of range";
                 charge m.Cost_model.mmio_access_ns;
                 Pci_topology.mmio_write topo ~addr:(base + off) ~size:sz v) }
    in
    let kernel_iopb = Ioport.Iopb.all () in
    let io_bar bar =
      match Pci_topology.io_region topo bdf ~bar with
      | None -> Error (Printf.sprintf "BAR %d is not an IO BAR" bar)
      | Some (base, _len) ->
        Ok
          { Driver_api.pio_read =
              (fun ~off ~size ->
                 charge m.Cost_model.pio_access_ns;
                 Ioport.read k.Kernel.ioports ~iopb:kernel_iopb ~port:(base + off) ~size);
            pio_write =
              (fun ~off ~size v ->
                 charge m.Cost_model.pio_access_ns;
                 Ioport.write k.Kernel.ioports ~iopb:kernel_iopb ~port:(base + off) ~size v) }
    in
    let alloc_dma ~bytes () =
      if bytes <= 0 then Error "alloc_dma: empty region"
      else begin
        let pages = (bytes + Bus.page_mask) / Bus.page_size in
        let phys = Phys_mem.alloc_pages k.Kernel.mem ~pages in
        let size = pages * Bus.page_size in
        Ok
          { Driver_api.dma_addr = phys;   (* trusted drivers use physical addresses *)
            dma_size = size;
            dma_read =
              (fun ~off ~len ->
                 if off < 0 || len < 0 || off + len > size then
                   invalid_arg "dma_read out of range";
                 Phys_mem.read k.Kernel.mem ~addr:(phys + off) ~len);
            dma_write =
              (fun ~off data ->
                 if off < 0 || off + Bytes.length data > size then
                   invalid_arg "dma_write out of range";
                 Phys_mem.write k.Kernel.mem ~addr:(phys + off) data) }
      end
    in
    let free_dma (r : Driver_api.dma_region) =
      Phys_mem.free_pages k.Kernel.mem ~addr:r.Driver_api.dma_addr
        ~pages:(r.Driver_api.dma_size / Bus.page_size)
    in
    let msix_vectors () =
      match Pci_cfg.find_capability cfg Pci_cfg.msix_cap_id with
      | None -> 1
      | Some _ -> max 1 (Pci_cfg.msix_table_size cfg)
    in
    let request_irqs ~n handler =
      match !vectors with
      | Some _ -> Error "irq already requested"
      | None ->
        if n < 1 then Error "request_irqs: need at least one vector"
        else if n > 1 && msix_vectors () < n then
          Error
            (Printf.sprintf "request_irqs: device exposes %d MSI-X vectors, %d requested"
               (msix_vectors ()) n)
        else begin
          let vs = Irq.alloc_vectors k.Kernel.irq ~n in
          match
            Irq.request_irqs k.Kernel.irq ~vectors:vs (fun ~queue ~source:_ -> handler ~queue)
          with
          | Error e -> Error e
          | Ok () ->
            vectors := Some vs;
            if n > 1 then begin
              Array.iteri
                (fun qi v ->
                   Pci_cfg.msix_configure cfg ~vector:qi ~address:Bus.msi_window_base ~data:v;
                   Pci_cfg.msix_set_mask cfg ~vector:qi false)
                vs;
              Pci_cfg.msix_set_enabled cfg true
            end
            else Pci_cfg.msi_configure cfg ~address:Bus.msi_window_base ~data:vs.(0);
            if Iommu.ir_available k.Kernel.iommu then
              Array.iter (fun v -> Iommu.ir_allow k.Kernel.iommu ~source:bdf ~vector:v) vs;
            Ok ()
        end
    in
    let free_irq () =
      match !vectors with
      | Some vs ->
        Irq.free_irqs k.Kernel.irq ~vectors:vs;
        vectors := None
      | None -> ()
    in
    Ok
      { Driver_api.pd_vendor = Pci_cfg.read cfg ~off:Pci_cfg.vendor_id ~size:2;
        pd_device = Pci_cfg.read cfg ~off:Pci_cfg.device_id ~size:2;
        pd_bdf = bdf;
        pd_cfg_read = cfg_read;
        pd_cfg_write = cfg_write;
        pd_enable = enable;
        pd_map_bar = map_bar;
        pd_io_bar = io_bar;
        pd_alloc_dma = alloc_dma;
        pd_free_dma = free_dma;
        pd_request_irqs = request_irqs;
        pd_free_irq = free_irq;
        pd_irq_ack = (fun ?queue:_ () -> ());
        pd_msix_vectors = msix_vectors;
        pd_find_capability = (fun id -> Pci_cfg.find_capability cfg id) }
