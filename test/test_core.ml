(* Unit tests for SUD's core: the safe PCI access module's mediation
   (config filter, MMIO bounds, DMA regions, IRQ masking, revocation),
   the native kenv, and driver-host lifecycle details. *)

open Helpers

type world = {
  k : Kernel.t;
  sp : Safe_pci.t;
  nic : E1000_dev.t;
  bdf : Bus.bdf;
}

let with_grant fn =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let nic = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
       let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
       let sp = Safe_pci.init k in
       { k; sp; nic; bdf })
    (fun k w ->
       Safe_pci.register_device w.sp w.bdf;
       Safe_pci.set_owner w.sp w.bdf ~uid:1000;
       let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let caps = Quota.table None proc in
       let grant = ok_or_fail "open" (Safe_pci.open_device w.sp ~caps w.bdf ~proc) in
       fn w proc grant)

let test_ownership () =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let nic = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
       let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
       let sp = Safe_pci.init k in
       (sp, bdf))
    (fun k (sp, bdf) ->
       Safe_pci.register_device sp bdf;
       Safe_pci.set_owner sp bdf ~uid:1000;
       let open_as proc = Safe_pci.open_device sp ~caps:(Quota.table None proc) bdf ~proc in
       let wrong = Process.spawn k.Kernel.procs ~name:"intruder" ~uid:1001 in
       (match open_as wrong with
        | Error e -> Alcotest.(check string) "denied" "permission denied" e
        | Ok _ -> Alcotest.fail "wrong uid must not open");
       let right = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let g = ok_or_fail "owner opens" (open_as right) in
       (* Exclusive: a second open fails until released. *)
       let second = Process.spawn k.Kernel.procs ~name:"drv2" ~uid:1000 in
       (match open_as second with
        | Error e -> Alcotest.(check string) "busy" "device busy (already opened)" e
        | Ok _ -> Alcotest.fail "double open");
       Safe_pci.release g;
       ignore (ok_or_fail "open after release" (open_as second)))

let test_unregistered_device () =
  run_in_kernel
    (fun k -> Safe_pci.init k)
    (fun k sp ->
       let p = Process.spawn k.Kernel.procs ~name:"x" ~uid:0 in
       match Safe_pci.open_device sp ~caps:(Quota.table None p) 99 ~proc:p with
       | Error e -> Alcotest.(check string) "not registered" "device not registered with SUD" e
       | Ok _ -> Alcotest.fail "opened a ghost device")

let test_cfg_filter () =
  with_grant (fun _w _proc g ->
      (* Reads pass. *)
      Alcotest.(check int) "vendor readable" 0x8086
        (Safe_pci.cfg_read g ~off:Pci_cfg.vendor_id ~size:2);
      (* Command register: only safe bits, INTx stays disabled. *)
      ok_or_fail "command write"
        (Safe_pci.cfg_write g ~off:Pci_cfg.command ~size:2
           (Pci_cfg.cmd_mem_enable lor Pci_cfg.cmd_bus_master));
      let cmd = Safe_pci.cfg_read g ~off:Pci_cfg.command ~size:2 in
      Alcotest.(check bool) "mem enable applied" true (cmd land Pci_cfg.cmd_mem_enable <> 0);
      Alcotest.(check bool) "INTx still disabled" true (cmd land Pci_cfg.cmd_intx_disable <> 0);
      (* Cache line / latency allowed. *)
      ok_or_fail "cache line" (Safe_pci.cfg_write g ~off:Pci_cfg.cache_line ~size:1 0x10);
      (* BARs and MSI denied. *)
      Alcotest.(check bool) "BAR denied" true
        (Result.is_error (Safe_pci.cfg_write g ~off:Pci_cfg.bar0 ~size:4 0x12340000));
      let cap = Option.get (Safe_pci.find_capability g Pci_cfg.msi_cap_id) in
      Alcotest.(check bool) "MSI denied" true
        (Result.is_error (Safe_pci.cfg_write g ~off:(cap + 4) ~size:4 0xFEE00000));
      Alcotest.(check bool) "random offset denied" true
        (Result.is_error (Safe_pci.cfg_write g ~off:0x40 ~size:4 1)))

let test_mmio_bounds () =
  with_grant (fun _w _proc g ->
      ok_or_fail "enable" (Safe_pci.enable_device g);
      let mmio = ok_or_fail "map" (Safe_pci.map_mmio g ~bar:0) in
      ignore (mmio.Driver_api.mmio_read ~off:E1000_dev.Regs.status ~size:4 : int);
      Alcotest.check_raises "beyond the BAR" (Invalid_argument "mmio read out of range")
        (fun () -> ignore (mmio.Driver_api.mmio_read ~off:0x20000 ~size:4 : int));
      Alcotest.(check bool) "no such BAR" true
        (Result.is_error (Safe_pci.map_mmio g ~bar:3)))

let test_dma_region_lifecycle () =
  with_grant (fun w proc g ->
      let r = ok_or_fail "alloc" (Safe_pci.alloc_dma g ~bytes:8192 ()) in
      Alcotest.(check int) "figure 9 base" 0x42430000 r.Driver_api.dma_addr;
      Alcotest.(check int) "charged to the process" 8192 (Process.memory_used proc);
      r.Driver_api.dma_write ~off:100 (Bytes.of_string "dma!");
      Alcotest.(check string) "rw" "dma!"
        (Bytes.to_string (r.Driver_api.dma_read ~off:100 ~len:4));
      (* The proxy-side validated reader agrees. *)
      (match Safe_pci.read_driver_mem g ~iova:(r.Driver_api.dma_addr + 100) ~len:4 with
       | Ok b -> Alcotest.(check string) "read_driver_mem" "dma!" (Bytes.to_string b)
       | Error e -> Alcotest.fail e);
      (* Outside any region: rejected. *)
      Alcotest.(check bool) "oob iova rejected" true
        (Result.is_error (Safe_pci.read_driver_mem g ~iova:0x50000000 ~len:4));
      Alcotest.(check bool) "straddling the end rejected" true
        (Result.is_error
           (Safe_pci.read_driver_mem g ~iova:(r.Driver_api.dma_addr + 8190) ~len:4));
      Safe_pci.free_dma g r;
      Alcotest.(check int) "uncharged" 0 (Process.memory_used proc);
      Alcotest.(check bool) "freed region unmapped" true
        (Result.is_error (Safe_pci.read_driver_mem g ~iova:r.Driver_api.dma_addr ~len:4));
      ignore w)

let test_irq_mask_and_ack () =
  with_grant (fun w _proc g ->
      let upcalls = ref 0 in
      ok_or_fail "setup_irq" (Safe_pci.setup_irqs g ~n:1 ~sink:(fun ~queue:_ -> incr upcalls));
      let cfg = Device.cfg (E1000_dev.device w.nic) in
      Alcotest.(check bool) "MSI programmed by the kernel" true (Pci_cfg.msi_enabled cfg);
      let vector = Pci_cfg.msi_data cfg land 0xff in
      (* First interrupt: forwarded and the vector masked for the poll
         window (NAPI-style: the device cannot deliver again until the
         driver acks). *)
      Irq.deliver w.k.Kernel.irq ~source:w.bdf ~vector;
      Alcotest.(check int) "forwarded" 1 !upcalls;
      Alcotest.(check bool) "masked for the poll" true (Pci_cfg.msi_masked cfg);
      Alcotest.(check bool) "mask counted" true (Safe_pci.msi_masks w.sp >= 1);
      (* A device-side raise in the window is suppressed by the MSI mask
         bit — no upcall and no escalation. *)
      (match Device.raise_msi (E1000_dev.device w.nic) with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "masked raise must not fault");
      Alcotest.(check int) "suppressed while masked" 1 !upcalls;
      Alcotest.(check int) "no storm from the device" 0 (Safe_pci.grant_storms g);
      (* Ack ends the poll: unmasked, and the next interrupt is
         forwarded (and masks again). *)
      Safe_pci.irq_ack g;
      Alcotest.(check bool) "unmasked after ack" false (Pci_cfg.msi_masked cfg);
      Irq.deliver w.k.Kernel.irq ~source:w.bdf ~vector;
      Alcotest.(check int) "forwarded again" 2 !upcalls;
      Alcotest.(check bool) "masked again" true (Pci_cfg.msi_masked cfg);
      Safe_pci.irq_ack g;
      Alcotest.(check bool) "double irq setup rejected" true
        (Result.is_error (Safe_pci.setup_irqs g ~n:1 ~sink:(fun ~queue:_ -> ()))))

(* NAPI pending replay: an MSI-X raise during the poll window latches in
   the pending-bit array and must be re-delivered at ack time — frames
   that arrive mid-poll cannot strand until unrelated traffic. *)
let test_msix_pending_replay () =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let nic = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium ~queues:4 () in
       let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
       let sp = Safe_pci.init k in
       { k; sp; nic; bdf })
    (fun k w ->
       Safe_pci.register_device w.sp w.bdf;
       Safe_pci.set_owner w.sp w.bdf ~uid:1000;
       let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let g =
         ok_or_fail "open" (Safe_pci.open_device w.sp ~caps:(Quota.table None proc) w.bdf ~proc)
       in
       ok_or_fail "enable" (Safe_pci.enable_device g);
       let hits = Array.make 4 0 in
       ok_or_fail "setup_irqs"
         (Safe_pci.setup_irqs g ~n:4 ~sink:(fun ~queue -> hits.(queue) <- hits.(queue) + 1));
       let cfg = Device.cfg (E1000_dev.device w.nic) in
       let dev = E1000_dev.device w.nic in
       (* Queue 1 interrupts; the vector masks for the poll. *)
       (match Device.raise_msix dev ~vector:1 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "raise faulted");
       Alcotest.(check int) "first delivery forwarded" 1 hits.(1);
       Alcotest.(check bool) "masked for the poll" true (Safe_pci.vector_masked g ~queue:1);
       (* Device raises again mid-poll: latched, not delivered. *)
       (match Device.raise_msix dev ~vector:1 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "masked raise faulted");
       Alcotest.(check int) "latched, not forwarded" 1 hits.(1);
       Alcotest.(check bool) "pending bit set" true (Pci_cfg.msix_pending cfg ~vector:1);
       Alcotest.(check int) "no storm from a latched raise" 0 (Safe_pci.grant_storms g);
       (* Ack replays the latched interrupt: a fresh upcall, masked again. *)
       Safe_pci.irq_ack ~queue:1 g;
       Alcotest.(check int) "pending replayed at ack" 2 hits.(1);
       Alcotest.(check bool) "replay re-masks" true (Safe_pci.vector_masked g ~queue:1);
       Alcotest.(check bool) "pending cleared" false (Pci_cfg.msix_pending cfg ~vector:1);
       (* Idle ack: nothing pending, vector simply unmasks. *)
       Safe_pci.irq_ack ~queue:1 g;
       Alcotest.(check int) "no spurious replay" 2 hits.(1);
       Alcotest.(check bool) "unmasked when idle" false (Safe_pci.vector_masked g ~queue:1);
       ignore k)

(* The NVMe model's pending bit follows its completion queue: a
   completion posted while the vector is masked latches it, and a CQ head
   doorbell that reaps every posted entry clears it, so the ack replays
   only completions the driver has not reaped. *)
let test_nvme_pending_follows_cq () =
  run_in_kernel
    (fun k ->
       let nvme = Nvme_dev.create k.Kernel.eng () in
       (Nvme_dev.device nvme, Kernel.attach_pci k (Nvme_dev.device nvme), Safe_pci.init k))
    (fun k (dev, bdf, sp) ->
       Safe_pci.register_device sp bdf;
       Safe_pci.set_owner sp bdf ~uid:1000;
       let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let g = ok_or_fail "open" (Safe_pci.open_device sp ~caps:(Quota.table None proc) bdf ~proc) in
       ok_or_fail "enable" (Safe_pci.enable_device g);
       let hits = ref 0 in
       ok_or_fail "setup_irqs"
         (Safe_pci.setup_irqs g ~n:(Safe_pci.msix_vectors g) ~sink:(fun ~queue ->
              if queue = 0 then incr hits));
       let mmio = ok_or_fail "map" (Safe_pci.map_mmio g ~bar:0) in
       let w32 off v = mmio.Driver_api.mmio_write ~off ~size:4 v in
       let sq = ok_or_fail "sq" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
       let cq = ok_or_fail "cq" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
       let q0 = Nvme_dev.Regs.qcfg_base in
       w32 (q0 + Nvme_dev.Regs.sq_base_lo) sq.Driver_api.dma_addr;
       w32 (q0 + Nvme_dev.Regs.sq_size) 8;
       w32 (q0 + Nvme_dev.Regs.cq_base_lo) cq.Driver_api.dma_addr;
       w32 (q0 + Nvme_dev.Regs.cq_size) 8;
       w32 Nvme_dev.Regs.cc Nvme_dev.Regs.cc_en;
       let tail = ref 0 in
       (* Queue 0 runs one flush and posts its completion. *)
       let complete_flush () =
         Driver_api.dma_set32 sq ~off:(!tail * Nvme_dev.Regs.sqe_size)
           (Nvme_dev.Regs.op_flush lor ((!tail + 1) lsl 16));
         incr tail;
         w32 Nvme_dev.Regs.db_base !tail;
         ignore (Fiber.sleep k.Kernel.eng 10_000 : Fiber.wake)
       in
       let reap ~head = w32 (Nvme_dev.Regs.db_base + 4) head in
       let pending () = Pci_cfg.msix_pending (Device.cfg dev) ~vector:0 in
       complete_flush ();
       Alcotest.(check int) "first completion interrupts" 1 !hits;
       Alcotest.(check bool) "masked for the poll" true (Safe_pci.vector_masked g ~queue:0);
       complete_flush ();
       Alcotest.(check int) "masked completion not forwarded" 1 !hits;
       Alcotest.(check bool) "masked completion latches" true (pending ());
       reap ~head:2;
       Alcotest.(check bool) "reaped: pending cleared" false (pending ());
       Safe_pci.irq_ack g;
       Alcotest.(check int) "ack replays nothing reaped" 1 !hits;
       Alcotest.(check bool) "unmasked" false (Safe_pci.vector_masked g ~queue:0);
       complete_flush ();
       Alcotest.(check int) "unmasked: next completion interrupts" 2 !hits;
       complete_flush ();
       reap ~head:3;
       Alcotest.(check bool) "one entry left: pending kept" true (pending ());
       Safe_pci.irq_ack g;
       Alcotest.(check int) "ack replays the unreaped entry" 3 !hits;
       Alcotest.(check bool) "replay re-masks" true (Safe_pci.vector_masked g ~queue:0))

(* A device whose interrupt condition never clears: queue 0's completion
   queue is never reaped, so its pending bit is never cleared for it,
   and its driver acks after every completion, so every ack replays the
   latched message.  On a grant with a quota ledger, the per-queue
   interrupt token bucket bounds the upcalls forwarded; the dropped ones
   still leave the vector masked, so nothing escalates, and a sibling
   vector keeps delivering. *)
let test_irq_bucket_bounds_a_condition_that_never_clears () =
  run_in_kernel
    (fun k ->
       let nvme = Nvme_dev.create k.Kernel.eng () in
       (Kernel.attach_pci k (Nvme_dev.device nvme), Safe_pci.init k))
    (fun k (bdf, sp) ->
       Safe_pci.register_device sp bdf;
       Safe_pci.set_owner sp bdf ~uid:1000;
       let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let burst = 4 in
       let quota =
         Quota.create k.Kernel.eng
           ~limits:{ Quota.default_limits with notify_burst = burst; notify_rate = 1_000 }
           ~name:"nvme" ()
       in
       let g =
         ok_or_fail "open" (Safe_pci.open_device sp ~caps:(Quota.table (Some quota) proc) bdf ~proc)
       in
       ok_or_fail "enable" (Safe_pci.enable_device g);
       let hits = Array.make (Safe_pci.msix_vectors g) 0 in
       ok_or_fail "setup_irqs"
         (Safe_pci.setup_irqs g ~n:(Safe_pci.msix_vectors g) ~sink:(fun ~queue ->
              hits.(queue) <- hits.(queue) + 1));
       let mmio = ok_or_fail "map" (Safe_pci.map_mmio g ~bar:0) in
       let w32 off v = mmio.Driver_api.mmio_write ~off ~size:4 v in
       let entries = 64 in
       let queue q =
         let sq = ok_or_fail "sq" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
         let cq = ok_or_fail "cq" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
         let base = Nvme_dev.Regs.qcfg_base + (q * Nvme_dev.Regs.qcfg_stride) in
         w32 (base + Nvme_dev.Regs.sq_base_lo) sq.Driver_api.dma_addr;
         w32 (base + Nvme_dev.Regs.sq_size) entries;
         w32 (base + Nvme_dev.Regs.cq_base_lo) cq.Driver_api.dma_addr;
         w32 (base + Nvme_dev.Regs.cq_size) entries;
         (sq, ref 0)
       in
       let queues = [| queue 0; queue 1 |] in
       w32 Nvme_dev.Regs.cc Nvme_dev.Regs.cc_en;
       (* Queue [q] runs one flush and posts its completion. *)
       let complete_flush q =
         let sq, tail = queues.(q) in
         Driver_api.dma_set32 sq ~off:(!tail * Nvme_dev.Regs.sqe_size)
           (Nvme_dev.Regs.op_flush lor ((!tail + 1) lsl 16));
         incr tail;
         w32 (Nvme_dev.Regs.db_base + (q * 8)) !tail;
         ignore (Fiber.sleep k.Kernel.eng 10_000 : Fiber.wake)
       in
       complete_flush 0;
       let rounds = 40 in
       for _ = 1 to rounds do
         complete_flush 0;
         Safe_pci.irq_ack g
       done;
       Alcotest.(check int) "the bucket bounds the upcalls forwarded" burst hits.(0);
       Alcotest.(check int) "the rest are dropped and counted" (rounds + 1 - burst)
         (Quota.irq_kicks_dropped quota);
       Alcotest.(check bool) "the vector is masked" true (Safe_pci.vector_masked g ~queue:0);
       Alcotest.(check int) "no storm escalation" 0 (Safe_pci.grant_storms g);
       Alcotest.(check bool) "not quarantined" false (Safe_pci.vector_quarantined g ~queue:0);
       (* The sibling delivers each completion it is sent. *)
       for i = 1 to 2 do
         complete_flush 1;
         Alcotest.(check int) (Printf.sprintf "sibling upcall %d" i) i hits.(1);
         w32 (Nvme_dev.Regs.db_base + 12) i;
         Safe_pci.irq_ack ~queue:1 g
       done;
       Alcotest.(check bool) "sibling unmasked" false (Safe_pci.vector_masked g ~queue:1);
       Alcotest.(check int) "upcalls forwarded on the grant" (burst + 2)
         (Safe_pci.grant_irqs_delivered g);
       (* The bucket refills at its rate: a millisecond later the next
          replay is forwarded again. *)
       ignore (Fiber.sleep k.Kernel.eng 1_000_000 : Fiber.wake);
       complete_flush 0;
       Safe_pci.irq_ack g;
       Alcotest.(check int) "one token a millisecond" (burst + 1) hits.(0))

let test_release_revokes_everything () =
  with_grant (fun w proc g ->
      ok_or_fail "enable" (Safe_pci.enable_device g);
      let r = ok_or_fail "alloc" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
      let mmio = ok_or_fail "map" (Safe_pci.map_mmio g ~bar:0) in
      ok_or_fail "irq" (Safe_pci.setup_irqs g ~n:1 ~sink:(fun ~queue:_ -> ()));
      let pages_before = Phys_mem.allocated_pages w.k.Kernel.mem in
      (* Killing the process revokes via the exit hook. *)
      Process.kill proc;
      Alcotest.(check bool) "grant dead" false (Safe_pci.grant_alive g);
      Alcotest.(check bool) "pages freed" true
        (Phys_mem.allocated_pages w.k.Kernel.mem < pages_before);
      (* The device can no longer DMA: domain detached = passthrough again,
         but its command register was cleared, so bus mastering is off. *)
      Alcotest.(check bool) "bus mastering off" false
        (Pci_cfg.command_has (Device.cfg (E1000_dev.device w.nic)) Pci_cfg.cmd_bus_master);
      (* Using the dead grant is an error, not a breach. *)
      (match Safe_pci.read_driver_mem g ~iova:r.Driver_api.dma_addr ~len:4 with
       | exception Failure _ -> ()
       | Ok _ -> Alcotest.fail "dead grant still reads"
       | Error _ -> ());
      match mmio.Driver_api.mmio_read ~off:0 ~size:4 with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "dead grant still does MMIO")

(* A region freed by a sibling fiber (or revoked) while its allocation
   sleeps in the mapping's CPU charge is never mapped: its pages went
   back when it left the table. *)
let test_dma_freed_while_mapping () =
  with_grant (fun w proc g ->
      let first = ok_or_fail "alloc" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
      let pages_before = Phys_mem.allocated_pages w.k.Kernel.mem in
      let next = first.Driver_api.dma_addr + first.Driver_api.dma_size in
      let result = ref None in
      ignore
        (Process.spawn_fiber proc (fun () -> result := Some (Safe_pci.alloc_dma g ~bytes:(4 * 4096) ()))
         : Fiber.t);
      ignore
        (Process.spawn_fiber proc (fun () ->
             Safe_pci.free_dma g { first with Driver_api.dma_addr = next; dma_size = 4 * 4096 })
         : Fiber.t);
      ignore (Fiber.sleep w.k.Kernel.eng 1_000_000 : Fiber.wake);
      (match !result with
       | Some (Error _) -> ()
       | Some (Ok _) -> Alcotest.fail "a freed region was handed out"
       | None -> Alcotest.fail "the allocation never returned");
      Alcotest.(check bool) "nothing mapped at its iova" false
        (List.exists (fun (iova, _, _, _) -> iova = next) (Safe_pci.iommu_mappings g));
      Alcotest.(check int) "its pages are back" pages_before
        (Phys_mem.allocated_pages w.k.Kernel.mem))

let test_iova_space_distinct_from_phys () =
  with_grant (fun w _proc g ->
      let r = ok_or_fail "alloc" (Safe_pci.alloc_dma g ~bytes:4096 ()) in
      r.Driver_api.dma_write ~off:0 (Bytes.of_string "thruput");
      (* The IOVA is not the physical address: reading physical memory at
         the IOVA value finds nothing (it is beyond RAM or unrelated). *)
      let maps = Safe_pci.iommu_mappings g in
      List.iter
        (fun (iova, phys, _, _) ->
           Alcotest.(check bool) "iova != phys" true (iova <> phys))
        maps;
      ignore w)

let test_kenv_native_direct () =
  run_in_kernel setup_duo (fun k duo ->
      let pdev = ok_or_fail "pcidev" (Kenv_native.pcidev k duo.bdf_a ~label:"t") in
      Alcotest.(check int) "vendor" 0x8086 pdev.Driver_api.pd_vendor;
      ok_or_fail "enable" (pdev.Driver_api.pd_enable ());
      let mmio = ok_or_fail "bar" (pdev.Driver_api.pd_map_bar 0) in
      Alcotest.(check bool) "link up" true
        (mmio.Driver_api.mmio_read ~off:E1000_dev.Regs.status ~size:4
         land E1000_dev.Regs.status_lu <> 0);
      let r = ok_or_fail "dma" (pdev.Driver_api.pd_alloc_dma ~bytes:4096 ()) in
      (* Trusted drivers get physical addresses. *)
      r.Driver_api.dma_write ~off:0 (Bytes.of_string "phys");
      Alcotest.(check string) "backed by phys mem" "phys"
        (Bytes.to_string (Phys_mem.read k.Kernel.mem ~addr:r.Driver_api.dma_addr ~len:4));
      pdev.Driver_api.pd_free_dma r)

let test_driver_restart_host () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s1 =
        ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
      in
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s1));
      let pid1 = Process.pid (Driver_host.proc s1) in
      let s2 = ok_or_fail "restart" (Driver_host.restart s1) in
      Alcotest.(check bool) "new process" true (Process.pid (Driver_host.proc s2) <> pid1);
      Alcotest.(check bool) "old one dead" false (Process.is_alive (Driver_host.proc s1));
      ok_or_fail "up again" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s2));
      Alcotest.(check bool) "netdev registered" true
        (Netstack.find_netdev k.Kernel.net "eth0" <> None))

let test_sysfs_matching () =
  run_in_kernel setup_duo (fun k _duo ->
      let hits = Sysfs.match_ids k.Kernel.sysfs ~ids:[ (0x8086, 0x10D3) ] in
      Alcotest.(check int) "both NICs matched" 2 (List.length hits);
      Alcotest.(check int) "no match for strangers" 0
        (List.length (Sysfs.match_ids k.Kernel.sysfs ~ids:[ (0x1234, 0x5678) ]));
      let e = List.hd hits in
      Sysfs.set_attr e "driver" "e1000";
      Alcotest.(check (option string)) "attrs" (Some "e1000") (Sysfs.attr e "driver"))

let test_device_files_listed () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      Safe_pci.register_device sp duo.bdf_a;
      let files = Safe_pci.device_files sp duo.bdf_a in
      Alcotest.(check int) "four files (Figure 6)" 4 (List.length files);
      List.iter2
        (fun f suffix ->
           Alcotest.(check bool) ("ends with " ^ suffix) true
             (String.length f > String.length suffix
              && String.sub f (String.length f - String.length suffix) (String.length suffix)
                 = suffix))
        files
        [ "/ctl"; "/mmio"; "/dma_coherent"; "/dma_caching" ];
      Alcotest.(check (list string)) "unregistered: none" []
        (Safe_pci.device_files sp duo.bdf_b))

(* A capability table holds one grant: the grant's DMA regions are
   looked up in its table without naming the device, so a second device
   needs a table of its own. *)
let test_one_grant_per_table () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      List.iter
        (fun bdf ->
           Safe_pci.register_device sp bdf;
           Safe_pci.set_owner sp bdf ~uid:1000)
        [ duo.bdf_a; duo.bdf_b ];
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      let caps = Quota.table None proc in
      ignore (ok_or_fail "first grant" (Safe_pci.open_device sp ~caps duo.bdf_a ~proc));
      (match Safe_pci.open_device sp ~caps duo.bdf_b ~proc with
       | Error e ->
         Alcotest.(check string) "second grant refused" "the generation already holds a grant" e
       | Ok _ -> Alcotest.fail "two grants in one table");
      ignore
        (ok_or_fail "its own table"
           (Safe_pci.open_device sp ~caps:(Quota.table None proc) duo.bdf_b ~proc)))

let test_delegation () =
  run_in_kernel setup_duo (fun k _duo ->
      let sp = Safe_pci.init k in
      let rows =
        Delegation.scan_and_start k sp
          ~registry:[ Delegation.Driver (Driver_host.net (), E1000.driver) ] ()
      in
      Alcotest.(check int) "one driver per NIC" 2 (List.length rows);
      let uids =
        List.filter_map
          (fun (_, _, r) ->
             match r with
             | Ok (Delegation.Started g) -> Some (Process.uid (Driver_host.proc g))
             | Error _ -> None)
          rows
      in
      Alcotest.(check int) "all started" 2 (List.length uids);
      Alcotest.(check bool) "distinct uids" true (List.nth uids 0 <> List.nth uids 1);
      Alcotest.(check int) "both netdevs registered" 2
        (List.length (Netstack.netdevs k.Kernel.net)))

let test_xmit_from_atomic_context () =
  (* §3.1.1: packet transmission is an asynchronous upcall precisely so the
     kernel can send while non-preemptable. *)
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s =
        ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
      in
      let dev = Driver_host.netdev s in
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net dev);
      let skb =
        Skbuff.of_bytes
          (let f = Bytes.make 80 '\000' in
           Bytes.fill f 0 6 '\xff';
           f)
      in
      let r =
        Preempt.with_atomic k.Kernel.preempt (fun () ->
            (Netdev.ops dev).Netdev.ndo_start_xmit ~queue:0 skb)
      in
      Alcotest.(check bool) "xmit accepted while atomic" true (r = Netdev.Xmit_ok);
      ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake);
      Alcotest.(check bool) "frame hit the wire" true (E1000_dev.tx_frames duo.nic_a >= 1))

(* The multiqueue storm bar: a storm on one MSI-X vector must quarantine
   only that vector.  Siblings keep delivering before, during and after
   the escalation, and an ack cannot resurrect the quarantined queue. *)
let test_msix_storm_sibling_queues () =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let nic = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium ~queues:4 () in
       let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
       let sp = Safe_pci.init k in
       { k; sp; nic; bdf })
    (fun k w ->
       Safe_pci.register_device w.sp w.bdf;
       Safe_pci.set_owner w.sp w.bdf ~uid:1000;
       let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
       let g =
         ok_or_fail "open" (Safe_pci.open_device w.sp ~caps:(Quota.table None proc) w.bdf ~proc)
       in
       let hits = Array.make 4 0 in
       ok_or_fail "setup_irqs"
         (Safe_pci.setup_irqs g ~n:4 ~sink:(fun ~queue -> hits.(queue) <- hits.(queue) + 1));
       let cfg = Device.cfg (E1000_dev.device w.nic) in
       Alcotest.(check bool) "MSI-X enabled" true (Pci_cfg.msix_enabled cfg);
       let vec q = Pci_cfg.msix_data cfg ~vector:q land 0xff in
       let deliver q = Irq.deliver w.k.Kernel.irq ~source:w.bdf ~vector:(vec q) in
       (* Normal traffic on every queue. *)
       for q = 0 to 3 do
         deliver q;
         Safe_pci.irq_ack ~queue:q g
       done;
       Alcotest.(check (list int)) "one upcall per queue" [ 1; 1; 1; 1 ]
         (Array.to_list hits);
       (* Storm queue 2: second interrupt before the ack masks the vector,
          a third while masked is only possible via raw MSI-window DMA and
          escalates to quarantine. *)
       deliver 2;
       deliver 2;
       Alcotest.(check bool) "vector 2 masked" true (Safe_pci.vector_masked g ~queue:2);
       deliver 2;
       Alcotest.(check bool) "vector 2 quarantined" true
         (Safe_pci.vector_quarantined g ~queue:2);
       Alcotest.(check bool) "storm attributed to queue 2" true
         (Safe_pci.grant_vector_storms g ~queue:2 >= 1);
       let before = (hits.(0), hits.(1), hits.(3)) in
       (* Siblings are untouched: unmasked, and still delivering. *)
       for q = 0 to 3 do
         if q <> 2 then begin
           Alcotest.(check bool)
             (Printf.sprintf "sibling %d not masked" q)
             false (Safe_pci.vector_masked g ~queue:q);
           deliver q;
           Safe_pci.irq_ack ~queue:q g
         end
       done;
       Alcotest.(check (triple int int int)) "siblings kept delivering"
         (let a, b, c = before in (a + 1, b + 1, c + 1))
         (hits.(0), hits.(1), hits.(3));
       (* The quarantined vector stays dead: acks don't unmask it and
          further interrupts never reach the driver. *)
       let q2 = hits.(2) in
       Safe_pci.irq_ack ~queue:2 g;
       Alcotest.(check bool) "ack cannot unquarantine" true
         (Safe_pci.vector_masked g ~queue:2);
       deliver 2;
       Alcotest.(check int) "no upcall from quarantined queue" q2 hits.(2))

let suite =
  [ Alcotest.test_case "safe_pci: ownership + exclusivity" `Quick test_ownership;
    Alcotest.test_case "safe_pci: unregistered device" `Quick test_unregistered_device;
    Alcotest.test_case "safe_pci: config filter" `Quick test_cfg_filter;
    Alcotest.test_case "safe_pci: MMIO bounds" `Quick test_mmio_bounds;
    Alcotest.test_case "safe_pci: DMA region lifecycle" `Quick test_dma_region_lifecycle;
    Alcotest.test_case "safe_pci: IRQ mask/ack" `Quick test_irq_mask_and_ack;
    Alcotest.test_case "safe_pci: MSI-X pending replay at ack" `Quick
      test_msix_pending_replay;
    Alcotest.test_case "safe_pci: NVMe pending bit follows its completion queue" `Quick
      test_nvme_pending_follows_cq;
    Alcotest.test_case "safe_pci: the IRQ bucket bounds a condition that never clears" `Quick
      test_irq_bucket_bounds_a_condition_that_never_clears;
    Alcotest.test_case "safe_pci: MSI-X storm quarantines one vector" `Quick
      test_msix_storm_sibling_queues;
    Alcotest.test_case "safe_pci: release revokes all" `Quick test_release_revokes_everything;
    Alcotest.test_case "safe_pci: iova != phys" `Quick test_iova_space_distinct_from_phys;
    Alcotest.test_case "kenv_native: direct access" `Quick test_kenv_native_direct;
    Alcotest.test_case "driver_host: restart" `Quick test_driver_restart_host;
    Alcotest.test_case "sysfs: id matching" `Quick test_sysfs_matching;
    Alcotest.test_case "safe_pci: device files (Figure 6)" `Quick test_device_files_listed;
    Alcotest.test_case "safe_pci: one grant per capability table" `Quick
      test_one_grant_per_table;
    Alcotest.test_case "safe_pci: a region freed while mapping is not mapped" `Quick
      test_dma_freed_while_mapping;
    Alcotest.test_case "delegation: one process per device" `Quick test_delegation;
    Alcotest.test_case "proxy: xmit from atomic context" `Quick test_xmit_from_atomic_context ]
