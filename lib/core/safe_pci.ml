type dma_alloc = {
  da_iova : int;
  da_phys : int;
  da_pages : int;
}

type reg_dev = {
  mutable rd_owner : int;        (* uid allowed to open; 0 = root only *)
  mutable rd_grant : grant option;
}

(* One entry per granted interrupt vector; index = queue.  Mask and storm
   state are per vector, so a storm on one RX queue quarantines that
   vector without silencing its siblings. *)
and vec_state = {
  vs_queue : int;
  vs_vector : int;
  mutable vs_masked : bool;
  mutable vs_storms : int;
  mutable vs_quarantined : bool;
  vs_delivered : Sud_obs.Metrics.counter;   (* per-queue IRQ upcalls forwarded *)
}

and grant = {
  g : t;
  g_bdf : Bus.bdf;
  g_proc : Process.t;
  g_dev : Device.t;
  g_domain : Iommu.domain;
  mutable g_alive : bool;
  mutable g_next_iova : int;
  mutable g_allocs : dma_alloc list;
  mutable g_io_grants : (int * int) list;   (* (base, len) in the IOPB *)
  g_iopb : Ioport.Iopb.t;
  mutable g_vecs : vec_state array;         (* empty until setup_irqs *)
  mutable g_msix : bool;                    (* vectors ride MSI-X, not legacy MSI *)
  mutable g_sink : (queue:int -> unit) option;
  mutable g_amd_msi_mapped : bool;
  g_quota : Quota.t option;      (* per-driver ledger; charged for this
                                    grant, its DMA mappings and IRQ-kick
                                    tokens when present *)
}

and t = {
  k : Kernel.t;
  sud : Cpu.cell;  (* "kernel:sud", the ledger line of SUD's kernel-side work *)
  devices : (Bus.bdf, reg_dev) Hashtbl.t;
  mutable n_masks : int;
  mutable n_ir : int;
  mutable n_livelock : int;
  mutable n_cfg_denied : int;
}

(* Figure 9's IO virtual addresses start here. *)
let iova_base = 0x42430000

let init k =
  { k;
    sud = Cpu.cell k.Kernel.cpu "kernel:sud";
    devices = Hashtbl.create 8;
    n_masks = 0;
    n_ir = 0;
    n_livelock = 0;
    n_cfg_denied = 0 }

let register_device t bdf =
  if not (Hashtbl.mem t.devices bdf) then
    Hashtbl.add t.devices bdf { rd_owner = 0; rd_grant = None }

let set_owner t bdf ~uid =
  match Hashtbl.find_opt t.devices bdf with
  | Some rd -> rd.rd_owner <- uid
  | None -> invalid_arg "Safe_pci.set_owner: device not registered"

let device_files t bdf =
  if Hashtbl.mem t.devices bdf then begin
    let base = Printf.sprintf "/sys/devices/pci0000:00/0000:%s/sud" (Bus.string_of_bdf bdf) in
    [ base ^ "/ctl"; base ^ "/mmio"; base ^ "/dma_coherent"; base ^ "/dma_caching" ]
  end
  else []

let model t = Cpu.cost_model t.k.Kernel.cpu

let charge g ns = Driver_api.charge (Process.cell g.g_proc) ns

let klogf t lvl fmt = Klog.printk t.k.Kernel.klog lvl fmt

(* ---- grant lifecycle ---- *)

let release grant =
  if grant.g_alive then begin
    grant.g_alive <- false;
    let t = grant.g in
    (* Quiesce the device before revoking its mappings. *)
    Pci_topology.cfg_write t.k.Kernel.topo grant.g_bdf ~off:Pci_cfg.command ~size:2 0;
    (Device.ops grant.g_dev).Device.reset ();
    if Array.length grant.g_vecs > 0 then begin
      Irq.free_irqs t.k.Kernel.irq
        ~vectors:(Array.map (fun vs -> vs.vs_vector) grant.g_vecs);
      grant.g_vecs <- [||]
    end;
    List.iter
      (fun da ->
         Iommu.unmap t.k.Kernel.iommu grant.g_domain ~iova:da.da_iova
           ~len:(da.da_pages * Bus.page_size);
         Phys_mem.free_pages t.k.Kernel.mem ~addr:da.da_phys ~pages:da.da_pages;
         match grant.g_quota with
         | Some q ->
           Quota.release_dma q ~bytes:(da.da_pages * Bus.page_size) ~pages:da.da_pages
         | None -> ())
      grant.g_allocs;
    grant.g_allocs <- [];
    (match grant.g_quota with Some q -> Quota.release_grant q | None -> ());
    List.iter
      (fun (base, len) -> Ioport.Iopb.revoke grant.g_iopb ~base ~len)
      grant.g_io_grants;
    grant.g_io_grants <- [];
    Iommu.detach t.k.Kernel.iommu ~source:grant.g_bdf;
    (match Hashtbl.find_opt t.devices grant.g_bdf with
     | Some rd -> rd.rd_grant <- None
     | None -> ());
    klogf t Klog.Info "sud: released device %s (driver %s)"
      (Bus.string_of_bdf grant.g_bdf) (Process.name grant.g_proc)
  end

let open_device t ?quota bdf ~proc =
  match Hashtbl.find_opt t.devices bdf with
  | None -> Error "device not registered with SUD"
  | Some rd ->
    if rd.rd_owner <> Process.uid proc && Process.uid proc <> 0 then
      Error "permission denied"
    else if rd.rd_grant <> None then Error "device busy (already opened)"
    else begin
      match Pci_topology.find_device t.k.Kernel.topo bdf with
      | None -> Error "no such PCI device"
      | Some dev ->
        match (match quota with None -> Ok () | Some q -> Quota.charge_grant q) with
        | Error e -> Error e
        | Ok () ->
        (* Start from a clean device: reset, decoding off, INTx disabled
           (SUD never allows legacy interrupts, §3.2.2). *)
        (Device.ops dev).Device.reset ();
        Pci_topology.cfg_write t.k.Kernel.topo bdf ~off:Pci_cfg.command ~size:2
          Pci_cfg.cmd_intx_disable;
        let domain = Iommu.attach t.k.Kernel.iommu ~source:bdf in
        let grant =
          { g = t;
            g_bdf = bdf;
            g_proc = proc;
            g_dev = dev;
            g_domain = domain;
            g_alive = true;
            g_next_iova = iova_base;
            g_allocs = [];
            g_io_grants = [];
            g_iopb = Ioport.Iopb.none ();
            g_vecs = [||];
            g_msix = false;
            g_sink = None;
            g_amd_msi_mapped = false;
            g_quota = quota }
        in
        rd.rd_grant <- Some grant;
        Process.on_exit proc (fun () -> release grant);
        (* On AMD IOMMUs the MSI window needs an explicit mapping for the
           device to interrupt at all; SUD installs it and can remove it
           to silence a rogue device. *)
        (match Iommu.mode t.k.Kernel.iommu with
         | Iommu.Amd_vi ->
           Iommu.map t.k.Kernel.iommu domain ~iova:Bus.msi_window_base
             ~phys:Bus.msi_window_base
             ~len:(Bus.msi_window_limit - Bus.msi_window_base) ~writable:true;
           grant.g_amd_msi_mapped <- true
         | Iommu.Intel_vtd _ -> ());
        klogf t Klog.Info "sud: %s opened %s" (Process.name proc) (Bus.string_of_bdf bdf);
        Ok grant
    end

let grant_bdf g = g.g_bdf
let grant_alive g = g.g_alive

let vec_of g queue =
  if queue < 0 || queue >= Array.length g.g_vecs then
    invalid_arg (Printf.sprintf "Safe_pci: grant has no vector for queue %d" queue);
  g.g_vecs.(queue)

let grant_storms g = Array.fold_left (fun acc vs -> acc + vs.vs_storms) 0 g.g_vecs

let grant_irqs_delivered g =
  Array.fold_left (fun acc vs -> acc + Sud_obs.Metrics.get vs.vs_delivered) 0 g.g_vecs
let grant_vector_storms g ~queue = (vec_of g queue).vs_storms
let vector_masked g ~queue = (vec_of g queue).vs_masked
let vector_quarantined g ~queue = (vec_of g queue).vs_quarantined

(* Function-level reset of a registered device that no driver currently
   owns — the supervisor's recovery step between killing one driver
   generation and starting the next.  Device model [reset] stands in for
   real PCIe FLR (see DESIGN.md); decoding stays off and INTx disabled
   until the next open. *)
let reset_device t bdf =
  match Hashtbl.find_opt t.devices bdf with
  | None -> Error "device not registered with SUD"
  | Some rd ->
    (match rd.rd_grant with
     | Some _ -> Error "device busy (grant outstanding)"
     | None ->
       (match Pci_topology.find_device t.k.Kernel.topo bdf with
        | None -> Error "no such PCI device"
        | Some dev ->
          (Device.ops dev).Device.reset ();
          Pci_topology.cfg_write t.k.Kernel.topo bdf ~off:Pci_cfg.command ~size:2
            Pci_cfg.cmd_intx_disable;
          klogf t Klog.Info "sud: function-level reset of %s" (Bus.string_of_bdf bdf);
          Ok ()))

let check_alive g = if not g.g_alive then failwith "Safe_pci: grant revoked"

(* ---- config space filtering ---- *)

let cfg_read g ~off ~size =
  check_alive g;
  charge g (model g.g).Cost_model.syscall_ns;
  Pci_topology.cfg_read g.g.k.Kernel.topo g.g_bdf ~off ~size

let command_allowed_bits =
  Pci_cfg.cmd_io_enable lor Pci_cfg.cmd_mem_enable lor Pci_cfg.cmd_bus_master

let deny g what =
  g.g.n_cfg_denied <- g.g.n_cfg_denied + 1;
  klogf g.g Klog.Warn "sud: %s: denied config write to %s by %s"
    (Bus.string_of_bdf g.g_bdf) what (Process.name g.g_proc);
  Error ("config write denied: " ^ what)

let cfg_write g ~off ~size v =
  check_alive g;
  charge g (model g.g).Cost_model.syscall_ns;
  let topo = g.g.k.Kernel.topo in
  let in_range base len = off >= base && off + size <= base + len in
  if in_range Pci_cfg.command 2 then begin
    (* Only decoding-enable and bus-master bits may change; INTx stays
       disabled no matter what the driver writes. *)
    if size = 2 && off = Pci_cfg.command then begin
      let filtered = v land command_allowed_bits lor Pci_cfg.cmd_intx_disable in
      Pci_topology.cfg_write topo g.g_bdf ~off ~size filtered;
      Ok ()
    end
    else deny g "partial command register"
  end
  else if in_range Pci_cfg.cache_line 1 || in_range Pci_cfg.latency_timer 1 then begin
    Pci_topology.cfg_write topo g.g_bdf ~off ~size v;
    Ok ()
  end
  else if in_range Pci_cfg.bar0 24 then deny g "BAR"
  else begin
    (* MSI/MSI-X capabilities and everything else are kernel-owned. *)
    match Pci_cfg.find_capability (Device.cfg g.g_dev) Pci_cfg.msi_cap_id with
    | Some cap when in_range cap 16 -> deny g "MSI capability"
    | Some _ | None ->
      (match Pci_cfg.find_capability (Device.cfg g.g_dev) Pci_cfg.msix_cap_id with
       | Some cap when in_range cap 4 -> deny g "MSI-X capability"
       | Some _ | None -> deny g (Printf.sprintf "offset 0x%x" off))
  end

let enable_device g =
  check_alive g;
  let cur = Pci_topology.cfg_read g.g.k.Kernel.topo g.g_bdf ~off:Pci_cfg.command ~size:2 in
  cfg_write g ~off:Pci_cfg.command ~size:2 (cur lor command_allowed_bits)

let find_capability g id =
  check_alive g;
  Pci_cfg.find_capability (Device.cfg g.g_dev) id

let msix_vectors g =
  check_alive g;
  match Pci_cfg.find_capability (Device.cfg g.g_dev) Pci_cfg.msix_cap_id with
  | None -> 1
  | Some _ -> max 1 (Pci_cfg.msix_table_size (Device.cfg g.g_dev))

(* ---- MMIO / IO ports ---- *)

let map_mmio g ~bar =
  check_alive g;
  match Pci_topology.bar_region g.g.k.Kernel.topo g.g_bdf ~bar with
  | None -> Error (Printf.sprintf "BAR %d is not a memory BAR" bar)
  | Some (base, size) ->
    if not (Bus.is_page_aligned base && Bus.is_page_aligned size) then
      Error "MMIO region is not page-aligned; refusing to map"
    else begin
      let topo = g.g.k.Kernel.topo in
      let m = model g.g in
      let read ~off ~size:sz =
        check_alive g;
        if off < 0 || off + sz > size then invalid_arg "mmio read out of range";
        charge g m.Cost_model.mmio_access_ns;
        Pci_topology.mmio_read topo ~addr:(base + off) ~size:sz
      in
      let write ~off ~size:sz v =
        check_alive g;
        if off < 0 || off + sz > size then invalid_arg "mmio write out of range";
        charge g m.Cost_model.mmio_access_ns;
        Pci_topology.mmio_write topo ~addr:(base + off) ~size:sz v
      in
      Ok { Driver_api.mmio_read = read; mmio_write = write }
    end

let claim_io g ~bar =
  check_alive g;
  match Pci_topology.io_region g.g.k.Kernel.topo g.g_bdf ~bar with
  | None -> Error (Printf.sprintf "BAR %d is not an IO BAR" bar)
  | Some (base, len) ->
    Ioport.Iopb.grant g.g_iopb ~base ~len;
    g.g_io_grants <- (base, len) :: g.g_io_grants;
    let m = model g.g in
    let ports = g.g.k.Kernel.ioports in
    let read ~off ~size =
      check_alive g;
      charge g m.Cost_model.pio_access_ns;
      Ioport.read ports ~iopb:g.g_iopb ~port:(base + off) ~size
    in
    let write ~off ~size v =
      check_alive g;
      charge g m.Cost_model.pio_access_ns;
      Ioport.write ports ~iopb:g.g_iopb ~port:(base + off) ~size v
    in
    Ok { Driver_api.pio_read = read; pio_write = write }

(* ---- DMA regions ---- *)

let alloc_dma g ~bytes () =
  check_alive g;
  if bytes <= 0 then Error "alloc_dma: empty region"
  else begin
    let pages = (bytes + Bus.page_mask) / Bus.page_size in
    match Process.charge_memory g.g_proc ~bytes:(pages * Bus.page_size) with
    | exception Process.Rlimit_exceeded m -> Error m
    | () ->
      match
        (match g.g_quota with
         | None -> Ok ()
         | Some q -> Quota.charge_dma q ~bytes:(pages * Bus.page_size) ~pages)
      with
      | Error e ->
        (* Ledger full: undo the rlimit charge and deny the mapping —
           backpressure, not kernel allocation. *)
        Process.uncharge_memory g.g_proc ~bytes:(pages * Bus.page_size);
        Error e
      | Ok () ->
      let phys = Phys_mem.alloc_pages g.g.k.Kernel.mem ~pages in
      let iova = g.g_next_iova in
      g.g_next_iova <- iova + (pages * Bus.page_size);
      let m = model g.g in
      charge g (pages * m.Cost_model.dma_map_ns);
      Iommu.map g.g.k.Kernel.iommu g.g_domain ~iova ~phys ~len:(pages * Bus.page_size)
        ~writable:true;
      g.g_allocs <- { da_iova = iova; da_phys = phys; da_pages = pages } :: g.g_allocs;
      let mem = g.g.k.Kernel.mem in
      let read ~off ~len =
        if off < 0 || len < 0 || off + len > pages * Bus.page_size then
          invalid_arg "dma_read out of range";
        Phys_mem.read mem ~addr:(phys + off) ~len
      in
      let write ~off data =
        if off < 0 || off + Bytes.length data > pages * Bus.page_size then
          invalid_arg "dma_write out of range";
        Phys_mem.write mem ~addr:(phys + off) data
      in
      Ok
        { Driver_api.dma_addr = iova;
          dma_size = pages * Bus.page_size;
          dma_read = read;
          dma_write = write }
  end

let free_dma g region =
  if g.g_alive then begin
    match List.find_opt (fun da -> da.da_iova = region.Driver_api.dma_addr) g.g_allocs with
    | None -> ()
    | Some da ->
      g.g_allocs <- List.filter (fun x -> x != da) g.g_allocs;
      Iommu.unmap g.g.k.Kernel.iommu g.g_domain ~iova:da.da_iova
        ~len:(da.da_pages * Bus.page_size);
      Phys_mem.free_pages g.g.k.Kernel.mem ~addr:da.da_phys ~pages:da.da_pages;
      Process.uncharge_memory g.g_proc ~bytes:(da.da_pages * Bus.page_size);
      (match g.g_quota with
       | Some q ->
         Quota.release_dma q ~bytes:(da.da_pages * Bus.page_size) ~pages:da.da_pages
       | None -> ())
  end

let lookup_iova g ~iova ~len =
  if len < 0 then None
  else
    List.find_map
      (fun da ->
         let size = da.da_pages * Bus.page_size in
         if iova >= da.da_iova && iova + len <= da.da_iova + size then
           Some (da.da_phys + (iova - da.da_iova))
         else None)
      g.g_allocs

let read_driver_mem g ~iova ~len =
  check_alive g;
  match lookup_iova g ~iova ~len with
  | Some phys -> Ok (Phys_mem.read g.g.k.Kernel.mem ~addr:phys ~len)
  | None -> Error (Printf.sprintf "address 0x%x+%d outside driver's DMA regions" iova len)

(* Allocation-free variant for the fast RX path: the proxy recycles its
   defensive-copy destination buffers, so the bytes land in a pooled
   buffer instead of a fresh one per frame. *)
let read_driver_mem_into g ~iova ~len ~dst ~dst_off =
  check_alive g;
  if len < 0 || dst_off < 0 || dst_off + len > Bytes.length dst then
    Error "read_driver_mem_into: destination out of range"
  else
    match lookup_iova g ~iova ~len with
    | Some phys ->
      Phys_mem.blit_out g.g.k.Kernel.mem ~addr:phys ~dst ~dst_off ~len;
      Ok ()
    | None -> Error (Printf.sprintf "address 0x%x+%d outside driver's DMA regions" iova len)

(* ---- interrupts ---- *)

(* Masking is per vector: legacy MSI has exactly one (the capability's
   mask bit); MSI-X masks one table entry, leaving sibling queues hot. *)
let set_vector_mask g vs masked =
  Cpu.account_cell g.g.sud (model g.g).Cost_model.msi_mask_ns;
  if g.g_msix then Pci_cfg.msix_set_mask (Device.cfg g.g_dev) ~vector:vs.vs_queue masked
  else Pci_cfg.msi_set_mask (Device.cfg g.g_dev) masked

let mask_vector g ~queue =
  let vs = vec_of g queue in
  if not vs.vs_masked then begin
    vs.vs_masked <- true;
    g.g.n_masks <- g.g.n_masks + 1;
    set_vector_mask g vs true
  end

let unmask_vector g ~queue =
  let vs = vec_of g queue in
  if vs.vs_quarantined then ()     (* a quarantined vector stays silenced *)
  else if vs.vs_masked then begin
    vs.vs_masked <- false;
    set_vector_mask g vs false
  end

(* An interrupt that arrives while the vector is masked means something is
   writing the MSI window by raw DMA.  Escalate per available hardware
   (paper §3.2.2 / §5.2).  With MSI-X the blast radius is one vector: the
   kernel-side mask (modelling a masked IRTE) quarantines that queue and
   its siblings keep delivering; legacy MSI has no per-vector remap
   granularity, so escalation silences the whole source. *)
let escalate g vs =
  let t = g.g in
  vs.vs_storms <- vs.vs_storms + 1;
  let iommu = t.k.Kernel.iommu in
  if g.g_msix && Array.length g.g_vecs > 1 then begin
    if not vs.vs_quarantined then begin
      vs.vs_quarantined <- true;
      vs.vs_masked <- true;
      t.n_ir <- t.n_ir + 1;
      Cpu.account_cell t.sud (model t).Cost_model.irte_update_ns;
      Irq.mask t.k.Kernel.irq ~vector:vs.vs_vector;
      Pci_cfg.msix_set_mask (Device.cfg g.g_dev) ~vector:vs.vs_queue true;
      klogf t Klog.Warn "sud: %s: interrupt storm on queue %d, vector quarantined (siblings live)"
        (Bus.string_of_bdf g.g_bdf) vs.vs_queue
    end
  end
  else if Iommu.ir_available iommu then begin
    t.n_ir <- t.n_ir + 1;
    Cpu.account_cell t.sud (model t).Cost_model.irte_update_ns;
    Iommu.ir_block_source iommu ~source:g.g_bdf;
    klogf t Klog.Warn "sud: %s: interrupt storm, disabled via interrupt remapping"
      (Bus.string_of_bdf g.g_bdf)
  end
  else
    match Iommu.mode iommu with
    | Iommu.Amd_vi ->
      if g.g_amd_msi_mapped then begin
        t.n_ir <- t.n_ir + 1;
        Iommu.unmap iommu g.g_domain ~iova:Bus.msi_window_base
          ~len:(Bus.msi_window_limit - Bus.msi_window_base);
        g.g_amd_msi_mapped <- false;
        klogf t Klog.Warn "sud: %s: interrupt storm, unmapped MSI window (AMD)"
          (Bus.string_of_bdf g.g_bdf)
      end
    | Iommu.Intel_vtd _ ->
      t.n_livelock <- t.n_livelock + 1;
      klogf t Klog.Warn
        "sud: %s: interrupt storm and no interrupt remapping: system is vulnerable to livelock"
        (Bus.string_of_bdf g.g_bdf)

let handle_irq g ~queue ~source =
  ignore source;
  if g.g_alive && queue < Array.length g.g_vecs then begin
    let vs = g.g_vecs.(queue) in
    if vs.vs_masked then
      (* The device itself cannot deliver through a masked vector
         (MSI-X latches the PBA bit, legacy MSI is suppressed at the
         capability) — an interrupt arriving here while masked means
         something is writing the MSI window by raw DMA.  Escalate. *)
      escalate g vs
    else begin
      let t = g.g in
      (* NAPI-style coalescing: mask the vector for the duration of the
         driver's poll.  Device-side raises in the window latch in the
         MSI-X pending-bit array at zero CPU cost and are replayed by
         [irq_ack], so under load one upcall covers a whole batch of
         frames while an idle link still gets an immediate upcall. *)
      mask_vector g ~queue;
      (match g.g_sink with
       | Some sink ->
         (* Rate limiting at the forwarding boundary: a dry per-queue
            token bucket absorbs an interrupt flood here — the vector is
            already masked and the pending bit latches, so [irq_ack]'s
            replay keeps a legitimate device live while a screaming one
            stops costing upcalls.  The drop is counted on the ledger. *)
         let permitted =
           match g.g_quota with
           | Some q -> Quota.take_irq_token q ~queue
           | None -> true
         in
         if permitted then begin
           Sud_obs.Metrics.incr vs.vs_delivered;
           Cpu.account_cell t.sud (model t).Cost_model.irq_upcall_ns;
           sink ~queue
         end
       | None -> ())
    end
  end

let setup_irqs g ~n ~sink =
  check_alive g;
  let t = g.g in
  let cfg = Device.cfg g.g_dev in
  if Array.length g.g_vecs > 0 then Error "irq already set up"
  else if n < 1 then Error "setup_irqs: need at least one vector"
  else if n > 1 && Pci_cfg.find_capability cfg Pci_cfg.msix_cap_id = None then
    Error "device has no MSI-X capability; only one vector available"
  else if n > 1 && n > Pci_cfg.msix_table_size cfg then
    Error (Printf.sprintf "device MSI-X table has %d entries, %d requested"
             (Pci_cfg.msix_table_size cfg) n)
  else begin
    let use_msix = n > 1 && Pci_cfg.find_capability cfg Pci_cfg.msix_cap_id <> None in
    let vectors = Irq.alloc_vectors t.k.Kernel.irq ~n in
    match
      Irq.request_irqs t.k.Kernel.irq ~vectors (fun ~queue ~source -> handle_irq g ~queue ~source)
    with
    | Error e -> Error e
    | Ok () ->
      g.g_vecs <-
        Array.mapi
          (fun queue vs_vector ->
             { vs_queue = queue; vs_vector; vs_masked = false;
               vs_storms = 0; vs_quarantined = false;
               vs_delivered =
                 Sud_obs.Metrics.counter
                   ~labels:
                     [ "dev", Bus.string_of_bdf g.g_bdf; "queue", string_of_int queue ]
                   ~subsystem:"safe_pci" ~name:"irqs_delivered" () })
          vectors;
      g.g_msix <- use_msix;
      g.g_sink <- Some sink;
      (* The kernel (not the driver) programs MSI/MSI-X address and data,
         and tells the remapper which (source, vector) pairs are legal. *)
      if use_msix then begin
        Array.iteri
          (fun queue vector ->
             Pci_cfg.msix_configure cfg ~vector:queue ~address:Bus.msi_window_base
               ~data:vector)
          vectors;
        Pci_cfg.msix_set_enabled cfg true
      end
      else
        begin
          Pci_cfg.msi_configure cfg ~address:Bus.msi_window_base ~data:vectors.(0);
          (* The mask register survives function-level reset; a previous
             generation dying mid-poll leaves its NAPI mask set, which
             would silently swallow this generation's interrupts (legacy
             MSI has no pending latch).  Start from a known-unmasked
             state, as msi_capability_init does. *)
          Pci_cfg.msi_set_mask cfg false
        end;
      if Iommu.ir_available t.k.Kernel.iommu then
        Array.iter
          (fun vector -> Iommu.ir_allow t.k.Kernel.iommu ~source:g.g_bdf ~vector)
          vectors;
      (* Spread queue-service load: queue i's handler runs on core i mod N. *)
      Array.iter
        (fun vector ->
           Irq.set_affinity t.k.Kernel.irq ~vector
             ~cpu:(Irq.default_affinity t.k.Kernel.irq vector))
        vectors;
      Ok ()
  end

let teardown_irqs g =
  if Array.length g.g_vecs > 0 then begin
    Irq.free_irqs g.g.k.Kernel.irq ~vectors:(Array.map (fun vs -> vs.vs_vector) g.g_vecs);
    g.g_vecs <- [||];
    g.g_sink <- None
  end

let irq_ack ?(queue = 0) g =
  if g.g_alive && queue < Array.length g.g_vecs then begin
    let vs = vec_of g queue in
    (* Interrupts the device raised during the poll window latched in
       the MSI-X pending-bit array; unmasking clears that bit with no
       re-delivery, so read it first and replay after the unmask.  A
       quarantined vector stays silent.  Legacy MSI has no pending
       latch — the driver's post-ack re-poll covers that edge. *)
    let replay =
      g.g_msix && vs.vs_masked && not vs.vs_quarantined
      && Pci_cfg.msix_pending (Device.cfg g.g_dev) ~vector:queue
    in
    unmask_vector g ~queue;
    if replay then
      ignore (Device.raise_msix g.g_dev ~vector:queue : (unit, Bus.fault) result)
  end

(* ---- observability ---- *)

let iommu_mappings g = Iommu.mappings g.g_domain

let dma_allocations g =
  List.rev_map (fun da -> (da.da_iova, da.da_pages * Bus.page_size)) g.g_allocs

let msi_masks t = t.n_masks
let ir_escalations t = t.n_ir
let livelock_warnings t = t.n_livelock
let cfg_denials t = t.n_cfg_denied
