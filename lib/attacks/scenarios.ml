type outcome = {
  attack : string;
  config : string;
  contained : bool;
  evidence : string;
}

(* ---- world plumbing ---- *)

type world = {
  eng : Engine.t;
  k : Kernel.t;
  sp : Safe_pci.t;
  medium : Net_medium.t;
  nic : E1000_dev.t;          (* the attacker's device *)
  victim : E1000_dev.t;       (* a sibling NIC on the same switch *)
  bdf : Bus.bdf;
  victim_bdf : Bus.bdf;
  snoop : bytes list ref;     (* every frame that crossed the medium *)
}

let make_world ?iommu_mode ?(enable_acs = true) () =
  let eng = Engine.create () in
  let k = Kernel.boot ?iommu_mode ~enable_acs eng in
  let medium = Net_medium.create eng () in
  let snoop = ref [] in
  ignore
    (Net_medium.attach medium ~rx:(fun f -> snoop := f :: !snoop)
     : Net_medium.port);
  let nic = E1000_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x01") ~medium () in
  let victim = E1000_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x02") ~medium () in
  let sw = Pci_topology.add_switch k.Kernel.topo ~parent:(Pci_topology.root_switch k.Kernel.topo) in
  if enable_acs then Pci_topology.enable_acs_everywhere k.Kernel.topo;
  let bdf = Kernel.attach_pci k ~switch:sw (E1000_dev.device nic) in
  let victim_bdf = Kernel.attach_pci k ~switch:sw (E1000_dev.device victim) in
  let sp = Safe_pci.init k in
  { eng; k; sp; medium; nic; victim; bdf; victim_bdf; snoop }

let secret = "TOPSECRET-CRYPTOKEY-0xDEADBEEF"

let plant_secret w =
  let addr = Phys_mem.alloc_pages w.k.Kernel.mem ~pages:1 in
  Phys_mem.write w.k.Kernel.mem ~addr (Bytes.of_string secret);
  addr

let contains_substring hay needle =
  let n = Bytes.length hay and m = String.length needle in
  let rec scan i =
    i + m <= n && (Bytes.sub_string hay i m = needle || scan (i + 1))
  in
  m > 0 && scan 0

let leaked w = List.exists (fun f -> contains_substring f secret) !(w.snoop)

let start_mal w ?(defensive_copy = true) drv =
  match Driver_host.launch w.k w.sp ~bdf:w.bdf (Driver_host.net ~defensive_copy ()) drv with
  | Ok s -> s
  | Error e -> failwith ("malicious driver did not start: " ^ e)

let settle w ms = ignore (Fiber.sleep w.eng (ms * 1_000_000) : Fiber.wake)

(* ---- 1. DMA read (exfiltration) ---- *)

let dma_read_exfiltration ~sud =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let addr = plant_secret w in
      if sud then begin
        let drv =
          Mal_nic.driver
            ~on_open:(fun t ->
                Mal_nic.dma_read_via_tx t ~target:addr ~len:(String.length secret);
                Ok ())
            ()
        in
        let s = start_mal w drv in
        ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
        settle w 5;
        let faults = Iommu.faults w.k.Kernel.iommu in
        { attack = "DMA read (exfiltration)";
          config = "SUD, VT-d";
          contained = (not (leaked w)) && faults <> [];
          evidence =
            Printf.sprintf "secret %s; %d IOMMU fault(s); device saw %d DMA aborts"
              (if leaked w then "LEAKED onto the wire" else "never left memory")
              (List.length faults) (E1000_dev.dma_faults w.nic) }
      end
      else begin
        (* Baseline: the same malicious code as a trusted in-kernel driver. *)
        (match Kenv_native.pcidev w.k w.bdf ~label:"kernel:mal" with
         | Error e -> failwith e
         | Ok pdev ->
           let env = Kenv_native.env w.k ~label:"kernel:mal" in
           let drv =
             Mal_nic.driver
               ~on_open:(fun t ->
                   Mal_nic.dma_read_via_tx t ~target:addr ~len:(String.length secret);
                   Ok ())
               ()
           in
           let cb =
             { Driver_api.nc_rx = (fun ~queue:_ ~addr:_ ~len:_ -> ());
               nc_tx_free = (fun ~queue:_ ~token:_ -> ());
               nc_tx_done = (fun ~queue:_ -> ());
               nc_carrier = ignore }
           in
           (match drv.Driver_api.nd_probe env pdev cb with
            | Error e -> failwith e
            | Ok inst -> ignore (inst.Driver_api.ni_open () : (unit, string) result)));
        settle w 5;
        { attack = "DMA read (exfiltration)";
          config = "trusted in-kernel driver (no SUD)";
          contained = not (leaked w);
          evidence =
            (if leaked w then "secret broadcast on the wire — total compromise"
             else "secret unexpectedly did not leak") }
      end)

(* ---- 1b. DMA straddling the grant ---- *)

(* The driver aims a TX descriptor 16 bytes before the end of its own
   one-page DMA buffer, long enough to run on into the next IOVA page,
   which it was never granted.  The kernel secret sits on the physical
   page right after the buffer's, so a transfer confined by its first
   byte alone would put the secret on the wire. *)
let dma_straddle () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let tail = 16 and target = ref 0 in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              let buf = t.Mal_nic.buf in
              target := buf.Driver_api.dma_addr + buf.Driver_api.dma_size - tail;
              Mal_nic.dma_read_via_tx t ~target:!target ~len:(tail + String.length secret);
              Ok ())
          ()
      in
      let s = start_mal w drv in
      let addr = plant_secret w in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      settle w 5;
      let after_buf =
        List.find_map
          (fun (iova, phys, len, _) ->
             if !target >= iova && !target < iova + len then Some (phys + (!target - iova) + tail)
             else None)
          (Safe_pci.iommu_mappings (Driver_host.grant s))
      in
      if after_buf <> Some addr then failwith "dma_straddle: the secret is not on the page after the buffer";
      let faults = Iommu.faults w.k.Kernel.iommu in
      { attack = "DMA straddling the grant";
        config = "SUD, VT-d";
        contained = (not (leaked w)) && faults <> [];
        evidence =
          Printf.sprintf "secret %s; %d IOMMU fault(s)"
            (if leaked w then "LEAKED onto the wire" else "never left memory")
            (List.length faults) })

(* ---- 2. DMA write (corruption) ---- *)

let dma_write_corruption () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let addr = plant_secret w in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              Mal_nic.dma_write_via_rx t ~target:addr;
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      (* The trigger: any frame on the medium is received by the device
         and DMA-written to the target. *)
      let port = Net_medium.attach w.medium ~rx:ignore in
      Net_medium.send w.medium port (Bytes.make 64 '\xEE');
      settle w 5;
      let now = Phys_mem.read w.k.Kernel.mem ~addr ~len:(String.length secret) in
      let intact = Bytes.to_string now = secret in
      { attack = "DMA write (kernel memory corruption)";
        config = "SUD, VT-d";
        contained = intact && Iommu.faults w.k.Kernel.iommu <> [];
        evidence =
          Printf.sprintf "kernel page %s; %d IOMMU fault(s)"
            (if intact then "intact" else "CORRUPTED")
            (List.length (Iommu.faults w.k.Kernel.iommu)) })

(* ---- 3. peer-to-peer DMA ---- *)

let peer_to_peer ~acs =
  let w = make_world ~enable_acs:acs () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      (* Victim's BAR0; its RAL0 register holds the low MAC word. *)
      let victim_bar, _ =
        match Pci_topology.bar_region w.k.Kernel.topo w.victim_bdf ~bar:0 with
        | Some r -> r
        | None -> failwith "victim has no BAR"
      in
      let target = victim_bar + E1000_dev.Regs.ral0 in
      let before = (Device.ops (E1000_dev.device w.victim)).Device.mmio_read
          ~bar:0 ~off:E1000_dev.Regs.ral0 ~size:4 in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              (* Write the scratch page's first bytes over the victim's
                 registers via device-to-device DMA. *)
              t.Mal_nic.buf.Driver_api.dma_write ~off:0 (Bytes.make 4 '\xAA');
              Mal_nic.dma_write_via_rx t ~target;
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      let port = Net_medium.attach w.medium ~rx:ignore in
      Net_medium.send w.medium port (Bytes.make 64 '\xAA');
      settle w 5;
      let after = (Device.ops (E1000_dev.device w.victim)).Device.mmio_read
          ~bar:0 ~off:E1000_dev.Regs.ral0 ~size:4 in
      let untouched = before = after in
      { attack = "peer-to-peer DMA into sibling BAR";
        config = (if acs then "PCIe ACS enabled" else "ACS disabled (legacy switch)");
        contained = untouched;
        evidence =
          Printf.sprintf "victim RAL0 %s (p2p transactions delivered: %d)"
            (if untouched then "untouched" else "OVERWRITTEN")
            (Sud_obs.Metrics.get (Pci_topology.metrics w.k.Kernel.topo).Pci_topology.pm_p2p) })

(* ---- 4. requester-ID spoofing ---- *)

let source_spoofing ~validation =
  let w = make_world ~enable_acs:validation () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let addr = plant_secret w in
      (* Start a SUD-confined driver so the attacker's device has an
         (empty) IOMMU domain of its own... *)
      let drv = Mal_nic.driver ~on_open:(fun _ -> Ok ()) () in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      settle w 2;
      (* ...then have the (compromised) device forge the trusted sibling's
         requester ID on a raw DMA read of the secret.  The sibling runs
         in passthrough, so without source validation the forged request
         translates under its identity. *)
      Device.set_spoof_source (E1000_dev.device w.nic) (Some w.victim_bdf);
      let result =
        Device.dma_read (E1000_dev.device w.nic) ~addr ~len:(String.length secret)
      in
      Device.set_spoof_source (E1000_dev.device w.nic) None;
      let stolen =
        match result with
        | Ok b -> Bytes.to_string b = secret
        | Error _ -> false
      in
      { attack = "requester-ID spoofing";
        config =
          (if validation then "ACS source validation on" else "source validation off");
        contained = not stolen;
        evidence =
          Printf.sprintf "forged-ID DMA %s; routing faults: %d"
            (if stolen then "READ THE SECRET under the victim's identity" else "rejected")
            (List.length (Pci_topology.routing_faults w.k.Kernel.topo)) })

(* ---- 5. interrupt storm ---- *)

let interrupt_storm () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              (* Register a handler that never finishes, then make the
                 device interrupt forever: unthrottled (ITR=0), interrupt
                 forced in a tight device-side loop via ICS. *)
              (match
                 t.Mal_nic.pdev.Driver_api.pd_request_irqs ~n:1 (fun ~queue:_ ->
                     (* "processing" that never completes *)
                     let rec spin () =
                       t.Mal_nic.env.Driver_api.env_consume 100_000;
                       spin ()
                     in
                     spin ())
               with
               | Ok () -> ()
               | Error e -> failwith e);
              Mal_nic.reg_write t E1000_dev.Regs.ims 0xFF;
              t.Mal_nic.env.Driver_api.env_spawn ~name:"storm" (fun () ->
                  let rec storm () =
                    Mal_nic.reg_write t E1000_dev.Regs.ics E1000_dev.Regs.int_txdw;
                    t.Mal_nic.env.Driver_api.env_msleep 1;
                    storm ()
                  in
                  storm ());
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      (* Meanwhile, the rest of the system must keep making progress. *)
      let progress = ref 0 in
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"bystander"
           (fun () ->
              for _ = 1 to 100 do
                Cpu.consume w.k.Kernel.cpu ~label:"proc:bystander" 50_000;
                incr progress
              done)
         : Fiber.t);
      settle w 50;
      let delivered = Sud_obs.Metrics.get (Irq.metrics w.k.Kernel.irq).Irq.qm_delivered in
      { attack = "interrupt storm (driver never acks)";
        config = "SUD, MSI masking";
        contained = !progress = 100 && delivered < 50 && Safe_pci.msi_masks w.sp > 0;
        evidence =
          Printf.sprintf
            "bystander finished %d/100 slices; %d interrupts delivered; MSI masked %d time(s)"
            !progress delivered (Safe_pci.msi_masks w.sp) })

(* ---- 6. DMA-to-MSI forged interrupts ---- *)

let msi_dma_storm ~iommu =
  let w = make_world ~iommu_mode:iommu () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let vector = ref 0 in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              (match t.Mal_nic.pdev.Driver_api.pd_request_irqs ~n:1 (fun ~queue:_ -> ()) with
               | Ok () -> ()
               | Error e -> failwith e);
              (* Read our own MSI data register (reads are allowed) to
                 learn the vector, then aim RX DMA at the MSI window. *)
              (match t.Mal_nic.pdev.Driver_api.pd_find_capability Pci_cfg.msi_cap_id with
               | Some cap ->
                 vector := t.Mal_nic.pdev.Driver_api.pd_cfg_read ~off:(cap + 8) ~size:4
               | None -> ());
              Mal_nic.dma_write_via_rx t ~target:Bus.msi_window_base;
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      settle w 1;
      (* Crafted frames: first 4 bytes encode the forged MSI message. *)
      let port = Net_medium.attach w.medium ~rx:ignore in
      for _ = 1 to 100 do
        let f = Bytes.make 64 '\000' in
        Bytes.set_int32_le f 0 (Int32.of_int !vector);
        Net_medium.send w.medium port f
      done;
      settle w 20;
      let delivered = Sud_obs.Metrics.get (Irq.metrics w.k.Kernel.irq).Irq.qm_delivered in
      let cfg_name, contained, note =
        match iommu with
        | Iommu.Intel_vtd { interrupt_remapping = false } ->
          ( "VT-d without interrupt remapping (the paper's testbed)",
            false,
            Printf.sprintf
              "%d forged interrupts delivered; SUD logged livelock vulnerability %d time(s)"
              delivered (Safe_pci.livelock_warnings w.sp) )
        | Iommu.Intel_vtd { interrupt_remapping = true } ->
          ( "VT-d with interrupt remapping",
            Sud_obs.Metrics.get (Pci_topology.metrics w.k.Kernel.topo).Pci_topology.pm_ir_blocked
            > 0
            && delivered < 10,
            Printf.sprintf "%d forged messages blocked by the remap table, %d delivered"
              (Sud_obs.Metrics.get
                 (Pci_topology.metrics w.k.Kernel.topo).Pci_topology.pm_ir_blocked)
              delivered )
        | Iommu.Amd_vi ->
          ( "AMD IOMMU (MSI window unmapped on storm)",
            Safe_pci.ir_escalations w.sp > 0 && delivered < 10,
            Printf.sprintf "MSI window unmapped after %d deliveries; later writes fault (%d faults)"
              delivered
              (List.length (Iommu.faults w.k.Kernel.iommu)) )
      in
      { attack = "DMA write to MSI window (forged interrupts)";
        config = cfg_name;
        contained;
        evidence = note })

(* ---- 7. TOCTOU on shared packet memory ---- *)

let toctou ~defensive_copy =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      (* A stateful "deep inspection" firewall: it spends CPU examining the
         packet, then rules on the payload.  The inspection time is the
         TOCTOU window. *)
      let fw_time = ref 0 in
      Netstack.set_firewall w.k.Kernel.net
        (Some
           (fun skb ->
              fw_time := Engine.now w.eng;
              Cpu.consume w.k.Kernel.cpu ~label:"kernel:firewall" 5_000;
              if contains_substring skb.Skbuff.data "EVIL" then Netstack.Drop
              else Netstack.Accept));
      let mal_mac = Bytes.of_string "\x02\xBA\xD0\x00\x00\x01" in
      let region = ref None in
      (* A well-formed UDP frame to our own interface, payload "GOOD...". *)
      let benign = Bytes.make 87 '\000' in
      Bytes.blit mal_mac 0 benign 0 6;
      Bytes.set_uint16_be benign 12 0x0800;
      Bytes.set benign 14 '\001';                    (* proto udp *)
      Bytes.set_uint16_be benign 15 9999;            (* sport *)
      Bytes.set_uint16_be benign 17 4444;            (* dport *)
      Bytes.set_uint16_be benign 19 64;              (* len *)
      let payload = Bytes.make 64 '.' in
      Bytes.blit_string "GOOD-PACKET" 0 payload 0 11;
      Bytes.set_uint16_be benign 21 (Skbuff.checksum payload);
      Bytes.blit payload 0 benign 23 64;
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              region := Some t.Mal_nic.buf;
              t.Mal_nic.buf.Driver_api.dma_write ~off:0 benign;
              t.Mal_nic.cb.Driver_api.nc_rx ~queue:0
                ~addr:t.Mal_nic.buf.Driver_api.dma_addr ~len:(Bytes.length benign);
              Ok ())
          ()
      in
      let s = start_mal w ~defensive_copy drv in
      let dev = Driver_host.netdev s in
      let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:4444 in
      (* The mutator waits for the firewall to have ruled, then swaps the
         payload in shared memory. *)
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"mutator"
           (fun () ->
              let rec wait_for_fw () =
                if !fw_time = 0 then begin
                  ignore (Fiber.sleep w.eng 200 : Fiber.wake);
                  wait_for_fw ()
                end
              in
              wait_for_fw ();
              match !region with
              | Some r ->
                let evil = Bytes.copy benign in
                Bytes.blit_string "EVIL-PAYLOAD" 0 evil 23 12;
                r.Driver_api.dma_write ~off:0 evil
              | None -> ())
         : Fiber.t);
      ignore (Netstack.ifconfig_up w.k.Kernel.net dev : (unit, string) result);
      settle w 10;
      let delivered = Netstack.udp_pending sock in
      let got_evil =
        delivered > 0
        &&
        match Netstack.udp_recv w.k.Kernel.net sock with
        | Some (data, _) -> contains_substring data "EVIL"
        | None -> false
      in
      { attack = "TOCTOU rewrite of shared packet memory";
        config =
          (if defensive_copy then "defensive copy fused with checksum (default)"
           else "zero-copy delivery (vulnerable configuration)");
        contained = (not got_evil) && delivered > 0;
        evidence =
          Printf.sprintf
            "firewall approved \"GOOD-PACKET\"; socket received %s"
            (if got_evil then "\"EVIL-PAYLOAD\" — verdict bypassed"
             else if delivered > 0 then "the inspected bytes"
             else "nothing (frame lost)") })

(* ---- 8. hang ---- *)

let driver_hang () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              (* Never reply: sleep forever inside the open upcall. *)
              let rec forever () =
                t.Mal_nic.env.Driver_api.env_msleep 1_000;
                forever ()
              in
              forever ())
          ()
      in
      let s = start_mal w drv in
      let t0 = Engine.now w.eng in
      let r = Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) in
      let elapsed_ms = (Engine.now w.eng - t0) / 1_000_000 in
      let hung_detected = match r with Error _ -> true | Ok () -> false in
      { attack = "unresponsive driver (hang on synchronous upcall)";
        config = "SUD, interruptible upcalls";
        contained = hung_detected && elapsed_ms < 1_000;
        evidence =
          Printf.sprintf "ifconfig returned %s after %d ms (not wedged forever)"
            (match r with Error e -> Printf.sprintf "%S" e | Ok () -> "Ok?!")
            elapsed_ms })

(* ---- 9. config space ---- *)

let config_space () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let results = ref [] in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              let try_write name off size v =
                let r = t.Mal_nic.pdev.Driver_api.pd_cfg_write ~off ~size v in
                results := (name, r) :: !results
              in
              (* Remap BAR0 over kernel RAM. *)
              try_write "BAR0 rewrite" Pci_cfg.bar0 4 0x1000;
              (* Retarget our MSI to a kernel-owned vector. *)
              (match t.Mal_nic.pdev.Driver_api.pd_find_capability Pci_cfg.msi_cap_id with
               | Some cap -> try_write "MSI address rewrite" (cap + 4) 4 0xFEE00F00
               | None -> ());
              (* Re-enable legacy INTx by clearing the disable bit. *)
              try_write "INTx enable" Pci_cfg.command 2 Pci_cfg.cmd_mem_enable;
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      settle w 5;
      let bar_blocked =
        List.exists (fun (n, r) -> n = "BAR0 rewrite" && Result.is_error r) !results
      in
      let msi_blocked =
        List.exists (fun (n, r) -> n = "MSI address rewrite" && Result.is_error r) !results
      in
      let intx_still_disabled =
        Pci_topology.cfg_read w.k.Kernel.topo w.bdf ~off:Pci_cfg.command ~size:2
        land Pci_cfg.cmd_intx_disable <> 0
      in
      { attack = "PCI config space manipulation";
        config = "SUD filtered config access";
        contained = bar_blocked && msi_blocked && intx_still_disabled;
        evidence =
          Printf.sprintf
            "BAR rewrite %s; MSI rewrite %s; INTx still disabled: %b; %d denials logged"
            (if bar_blocked then "denied" else "ALLOWED")
            (if msi_blocked then "denied" else "ALLOWED")
            intx_still_disabled (Safe_pci.cfg_denials w.sp) })

(* ---- 10. allocation bomb ---- *)

let allocation_bomb () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let allocated = ref 0 in
      let stopped_by_limit = ref false in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              let rec bomb () =
                match t.Mal_nic.pdev.Driver_api.pd_alloc_dma ~bytes:65536 () with
                | Ok _ ->
                  allocated := !allocated + 65536;
                  bomb ()
                | Error _ ->
                  stopped_by_limit := true;
                  Ok ()
              in
              bomb ())
          ()
      in
      let s = start_mal w drv in
      Driver_host.set_memory_limit s ~bytes:(4 * 1024 * 1024);
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      settle w 20;
      { attack = "DMA allocation bomb";
        config = "setrlimit 4 MiB on the driver process";
        contained = !stopped_by_limit && !allocated <= 5 * 1024 * 1024;
        evidence =
          Printf.sprintf "driver allocated %d KiB before hitting RLIMIT" (!allocated / 1024) })

(* ---- 11. kill and restart (supervised) ---- *)

(* Fast supervision policy so scenarios converge in a few simulated ms:
   the soaks' warm watchdog with the default backlog. *)
let fast_policy =
  { (Fault_inject.warm_policy ~max_restarts:5) with Supervisor.backlog_limit = 256 }

let wait_recovered w sv =
  ignore
    (Fiber.poll w.eng ~every_ns:2_000_000 ~budget:200 (fun () ->
         (Supervisor.stats sv).Supervisor.st_restarts > 0)
     : bool)

(* One probe frame through the (possibly fresh) driver; true if it
   reached the wire. *)
let traffic_flows w dev ~port =
  let sock = Netstack.udp_bind w.k.Kernel.net dev ~port in
  let before = List.length !(w.snoop) in
  ignore
    (Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast ~dst_port:port
       (Bytes.of_string "recovered")
     : [ `Sent | `Dropped ]);
  settle w 5;
  Netstack.udp_close w.k.Kernel.net sock;
  List.length !(w.snoop) > before

let supervised_evidence sv ~extra =
  let st = Supervisor.stats sv in
  Printf.sprintf "detected %S in %d us; traffic restored %d us after detection (restart #%d)%s"
    (Option.value ~default:"?" st.Supervisor.st_last_reason)
    (st.Supervisor.st_last_detect_latency_ns / 1_000)
    (st.Supervisor.st_last_recovery_ns / 1_000)
    st.Supervisor.st_restarts extra

let kill_and_restart () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let addr = plant_secret w in
      let mal =
        Mal_nic.driver
          ~on_open:(fun t ->
              Mal_nic.dma_read_via_tx t ~target:addr ~len:16;
              Ok ())
          ()
      in
      (* Generation 0 is the malicious driver; the supervisor's restart
         hands the device to the honest one. *)
      let factory ~attempt = if attempt = 0 then mal else E1000.driver in
      match Supervisor.start w.k w.sp ~policy:fast_policy ~name:"eth0" ~bdf:w.bdf factory with
      | Error e ->
        { attack = "kill -9 and restart";
          config = "SUD driver supervisor";
          contained = false;
          evidence = "supervised start failed: " ^ e }
      | Ok sv ->
        let old_proc = Supervisor.proc sv in
        let dev = Supervisor.netdev sv in
        ignore (Netstack.ifconfig_up w.k.Kernel.net dev : (unit, string) result);
        (* The malicious open fires DMA at the secret; the watchdog sees
           the IOMMU fault, kills the driver and restarts autonomously. *)
        wait_recovered w sv;
        settle w 5;
        let st = Supervisor.stats sv in
        let works = traffic_flows w dev ~port:5353 in
        let old_dead =
          match old_proc with Some p -> not (Process.is_alive p) | None -> true
        in
        { attack = "kill -9 and restart";
          config = "SUD driver supervisor (autonomous)";
          contained =
            st.Supervisor.st_restarts >= 1
            && Supervisor.state sv = Supervisor.Running
            && works && old_dead
            && not (leaked w);
          evidence =
            supervised_evidence sv
              ~extra:
                (Printf.sprintf "; malicious process dead: %b; traffic flows: %b; secret leaked: %b"
                   old_dead works (leaked w)) })

(* ---- 11b. hang, detected by the heartbeat, recovered ---- *)

let driver_hang_recovery () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      match
        Supervisor.start w.k w.sp ~policy:fast_policy ~name:"eth0" ~bdf:w.bdf
          (fun ~attempt:_ -> E1000.driver)
      with
      | Error e ->
        { attack = "driver hang, supervised recovery";
          config = "SUD driver supervisor, heartbeat";
          contained = false;
          evidence = "supervised start failed: " ^ e }
      | Ok sv ->
        let dev = Supervisor.netdev sv in
        ignore (Netstack.ifconfig_up w.k.Kernel.net dev : (unit, string) result);
        settle w 3;
        (* Wedge the driver's main upcall loop: no crash, no fault — only
           the heartbeat ping can notice. *)
        let applied = Fault_inject.inject ~sv Fault_inject.Hang in
        wait_recovered w sv;
        settle w 5;
        let st = Supervisor.stats sv in
        let works = traffic_flows w dev ~port:5354 in
        { attack = "driver hang, supervised recovery";
          config = "SUD driver supervisor, heartbeat";
          contained =
            applied && st.Supervisor.st_restarts >= 1
            && Supervisor.state sv = Supervisor.Running
            && works;
          evidence =
            supervised_evidence sv
              ~extra:(Printf.sprintf "; traffic flows after recovery: %b" works) })

(* ---- 11c. crash loop exhausts the restart budget ---- *)

let crash_loop_quarantine () =
  let qr = Fault_inject.crash_loop ~max_restarts:3 () in
  { attack = "crash-looping driver";
    config = "SUD driver supervisor, restart budget 3/window";
    contained =
      qr.Fault_inject.qr_quarantined && qr.Fault_inject.qr_netdev_removed
      && qr.Fault_inject.qr_sysfs_state = "quarantined";
    evidence =
      Printf.sprintf
        "%d restarts, then quarantined: %b; netdev removed: %b; sysfs sud_state=%S"
        qr.Fault_inject.qr_restarts qr.Fault_inject.qr_quarantined
        qr.Fault_inject.qr_netdev_removed qr.Fault_inject.qr_sysfs_state }

(* ---- 12. IO-port scanning from a PIO driver ---- *)

let io_port_scan () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let ne2k = Ne2k_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x07") ~medium () in
  let bdf = Kernel.attach_pci k (Ne2k_dev.device ne2k) in
  (* A victim device on other ports the attacker has no grant for. *)
  Ioport.register k.Kernel.ioports ~base:0x60 ~len:4
    ~read:(fun ~off:_ ~size:_ -> 0x5A)
    ~write:(fun ~off:_ ~size:_ _ -> ());
  let result = ref None in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"scenario" (fun () ->
         let sp = Safe_pci.init k in
         Safe_pci.register_device sp bdf;
         Safe_pci.set_owner sp bdf ~uid:1000;
         let proc = Process.spawn k.Kernel.procs ~name:"mal-ne2k" ~uid:1000 in
         let grant =
           match Safe_pci.open_device sp ~caps:(Quota.table None proc) bdf ~proc with
           | Ok g -> g
           | Error e -> failwith e
         in
         (match Safe_pci.enable_device grant with Ok () -> () | Error e -> failwith e);
         let pio =
           match Safe_pci.claim_io grant ~bar:0 with Ok p -> p | Error e -> failwith e
         in
         (* Own ports work... *)
         let own = pio.Driver_api.pio_read ~off:0 ~size:1 in
         ignore own;
         (* ...but the IOPB grants only the device's BAR range, so reaching
            port 0x60 through it is out of range by construction, and the
            raw port space rejects the process's IOPB. *)
         let gp =
           match
             Ioport.read k.Kernel.ioports ~iopb:(Ioport.Iopb.none ()) ~port:0x60 ~size:1
           with
           | _ -> false
           | exception Ioport.General_protection _ -> true
         in
         result :=
           Some
             { attack = "IO-port scan beyond the granted BAR";
               config = "SUD IO-permission bitmap";
               contained = gp;
               evidence =
                 (if gp then "access to port 0x60 raised #GP; only the NIC's own ports answer"
                  else "foreign port readable — IOPB breach") })
     : Fiber.t);
  Engine.run ~max_time:1_000_000_000 eng;
  Option.get !result

(* ---- 13. downcall flood ---- *)

let downcall_flood () =
  let w = make_world () in
  Kernel.run ~max_ms:5_000 w.k (fun () ->
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              t.Mal_nic.env.Driver_api.env_spawn ~name:"flood" (fun () ->
                  (* Saturate the u2k ring forever. *)
                  let rec flood () =
                    for _ = 1 to 64 do
                      t.Mal_nic.cb.Driver_api.nc_tx_done ~queue:0
                    done;
                    t.Mal_nic.env.Driver_api.env_msleep 1;
                    flood ()
                  in
                  flood ());
              Ok ())
          ()
      in
      let s = start_mal w drv in
      ignore (Netstack.ifconfig_up w.k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      (* Bystander work must still complete: the flood's kernel work runs
         in the flooding driver's own entries, not the machine. *)
      let progress = ref 0 in
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"bystander"
           (fun () ->
              for _ = 1 to 100 do
                Cpu.consume w.k.Kernel.cpu ~label:"proc:bystander" 50_000;
                incr progress
              done)
         : Fiber.t);
      settle w 50;
      let downcalls =
        Sud_obs.Metrics.get (Uchan.metrics (Driver_host.chan s)).Uchan.um_down
      in
      { attack = "downcall flood (uchan spam)";
        config = "SUD uchan, drained in the driver's own entries";
        contained = !progress = 100 && downcalls > 1000;
        evidence =
          Printf.sprintf "driver sent %d downcalls; bystander finished %d/100 slices"
            downcalls !progress })

let all () =
  [ dma_read_exfiltration ~sud:false;
    dma_read_exfiltration ~sud:true;
    dma_straddle ();
    dma_write_corruption ();
    peer_to_peer ~acs:false;
    peer_to_peer ~acs:true;
    source_spoofing ~validation:false;
    source_spoofing ~validation:true;
    interrupt_storm ();
    msi_dma_storm ~iommu:(Iommu.Intel_vtd { interrupt_remapping = false });
    msi_dma_storm ~iommu:(Iommu.Intel_vtd { interrupt_remapping = true });
    msi_dma_storm ~iommu:Iommu.Amd_vi;
    toctou ~defensive_copy:true;
    toctou ~defensive_copy:false;
    driver_hang ();
    config_space ();
    allocation_bomb ();
    io_port_scan ();
    downcall_flood ();
    kill_and_restart ();
    driver_hang_recovery ();
    crash_loop_quarantine () ]
