(* Unit and property tests for the hardware substrate: physical memory,
   PCI config space, IOMMU, IO ports, topology routing, devices. *)

let mode_vtd = Iommu.Intel_vtd { interrupt_remapping = false }

(* IOTLB traffic read off the IOMMU's registry handles. *)
type iotlb = { hits : int; misses : int; evictions : int }

let iotlb_stats io =
  let m = Iommu.metrics io in
  { hits = Sud_obs.Metrics.gauge_value m.Iommu.im_hits;
    misses = Sud_obs.Metrics.gauge_value m.Iommu.im_misses;
    evictions = Sud_obs.Metrics.get m.Iommu.im_evictions }

let iotlb_flushes io = Sud_obs.Metrics.get (Iommu.metrics io).Iommu.im_flushes
let mode_vtd_ir = Iommu.Intel_vtd { interrupt_remapping = true }

(* ---- phys_mem ---- *)

let test_phys_rw () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  Phys_mem.write m ~addr:0x1234 (Bytes.of_string "hello");
  Alcotest.(check string) "roundtrip" "hello"
    (Bytes.to_string (Phys_mem.read m ~addr:0x1234 ~len:5));
  Phys_mem.write32 m 0x2000 0xDEADBEEF;
  Alcotest.(check int) "word" 0xDEADBEEF (Phys_mem.read32 m 0x2000)

let test_phys_cross_page () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  let data = Bytes.init 10000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write m ~addr:4000 data;
  Alcotest.(check bytes) "spans pages" data (Phys_mem.read m ~addr:4000 ~len:10000)

let test_phys_bounds () =
  let m = Phys_mem.create ~size:4096 in
  Alcotest.check_raises "out of range" (Phys_mem.Bus_error 4096) (fun () ->
      ignore (Phys_mem.read8 m 4096 : int))

let test_phys_alloc () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  let a = Phys_mem.alloc_pages m ~pages:2 in
  let b = Phys_mem.alloc_pages m ~pages:1 in
  Alcotest.(check bool) "disjoint" true (b >= a + 8192 || b + 4096 <= a);
  Alcotest.(check bool) "page aligned" true (Bus.is_page_aligned a && Bus.is_page_aligned b);
  Alcotest.(check bool) "low memory reserved" true (a >= 65536);
  Phys_mem.write8 m a 0xAB;
  Phys_mem.free_pages m ~addr:a ~pages:2;
  Alcotest.(check int) "freed pages are zeroed" 0 (Phys_mem.read8 m a);
  let c = Phys_mem.alloc_pages m ~pages:2 in
  Alcotest.(check int) "free list reuses the run" a c

let test_phys_exhaustion () =
  let m = Phys_mem.create ~size:(128 * 4096) in
  Alcotest.check_raises "oom" (Failure "Phys_mem: out of physical memory") (fun () ->
      for _ = 1 to 1000 do ignore (Phys_mem.alloc_pages m ~pages:8 : int) done)

(* ---- pci_cfg ---- *)

let mk_cfg () =
  Pci_cfg.create ~vendor:0x8086 ~device:0x10D3
    ~bars:[| Some (Pci_cfg.Mem { size = 0x20000 }); Some (Pci_cfg.Io { size = 0x20 }) |]
    ()

let test_cfg_ids () =
  let c = mk_cfg () in
  Alcotest.(check int) "vendor" 0x8086 (Pci_cfg.read c ~off:Pci_cfg.vendor_id ~size:2);
  Alcotest.(check int) "device" 0x10D3 (Pci_cfg.read c ~off:Pci_cfg.device_id ~size:2);
  Alcotest.(check int) "byte access" 0x86 (Pci_cfg.read c ~off:0 ~size:1)

let test_cfg_bar_sizing () =
  let c = mk_cfg () in
  Pci_cfg.set_bar_base c 0 0xE0000000;
  Pci_cfg.write c ~off:Pci_cfg.bar0 ~size:4 0xFFFFFFFF;
  let sized = Pci_cfg.read c ~off:Pci_cfg.bar0 ~size:4 in
  Alcotest.(check int) "size mask" (lnot 0x1FFFF land 0xFFFFFFFF) sized;
  Pci_cfg.write c ~off:Pci_cfg.bar0 ~size:4 0xE0000000;
  Alcotest.(check int) "base restored" 0xE0000000 (Pci_cfg.bar_base c 0)

let test_cfg_msi () =
  let c = mk_cfg () in
  Alcotest.(check (option int)) "no cap yet" None (Pci_cfg.find_capability c Pci_cfg.msi_cap_id);
  Pci_cfg.add_msi_capability c;
  Alcotest.(check bool) "cap found" true
    (Pci_cfg.find_capability c Pci_cfg.msi_cap_id <> None);
  Alcotest.(check bool) "disabled initially" false (Pci_cfg.msi_enabled c);
  Pci_cfg.msi_configure c ~address:0xFEE00000 ~data:42;
  Alcotest.(check bool) "enabled" true (Pci_cfg.msi_enabled c);
  Alcotest.(check int) "address" 0xFEE00000 (Pci_cfg.msi_address c);
  Alcotest.(check int) "data" 42 (Pci_cfg.msi_data c);
  Pci_cfg.msi_set_mask c true;
  Alcotest.(check bool) "masked" true (Pci_cfg.msi_masked c);
  Pci_cfg.msi_set_mask c false;
  Alcotest.(check bool) "unmasked" false (Pci_cfg.msi_masked c)

let test_cfg_command_bits () =
  let c = mk_cfg () in
  Pci_cfg.write c ~off:Pci_cfg.command ~size:2 Pci_cfg.cmd_bus_master;
  Alcotest.(check bool) "bus master" true (Pci_cfg.command_has c Pci_cfg.cmd_bus_master);
  Alcotest.(check bool) "mem not enabled" false (Pci_cfg.command_has c Pci_cfg.cmd_mem_enable)

let test_cfg_rejects_tiny_bar () =
  Alcotest.check_raises "sub-page memory BAR rejected"
    (Invalid_argument "Pci_cfg.create: memory BAR size must be a power of two >= one page")
    (fun () ->
       ignore (Pci_cfg.create ~vendor:1 ~device:1 ~bars:[| Some (Pci_cfg.Mem { size = 512 }) |] ()
               : Pci_cfg.t))

(* ---- iommu ---- *)

let test_iommu_translate () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x42430000 ~phys:0x10000 ~len:8192 ~writable:true;
  (match Iommu.translate io ~source:5 ~addr:0x42430123 ~dir:Bus.Dma_read with
   | `Phys p -> Alcotest.(check int) "offset preserved" 0x10123 p
   | `Msi | `Fault _ -> Alcotest.fail "expected translation");
  (match Iommu.translate io ~source:5 ~addr:0x42432000 ~dir:Bus.Dma_read with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "expected fault beyond mapping");
  Alcotest.(check int) "fault recorded" 1 (List.length (Iommu.faults io))

let test_iommu_passthrough () =
  let io = Iommu.create ~mode:mode_vtd () in
  match Iommu.translate io ~source:9 ~addr:0x1234 ~dir:Bus.Dma_read with
  | `Phys p -> Alcotest.(check int) "identity for unattached devices" 0x1234 p
  | `Msi | `Fault _ -> Alcotest.fail "expected passthrough"

let test_iommu_write_protection () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x1000 ~phys:0x2000 ~len:4096 ~writable:false;
  (match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_read with
   | `Phys _ -> ()
   | `Msi | `Fault _ -> Alcotest.fail "read allowed");
  match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_write with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "write must fault on read-only mapping"

let test_iommu_msi_quirk () =
  (* Intel: implicit identity MSI mapping even for confined devices. *)
  let io = Iommu.create ~mode:mode_vtd () in
  ignore (Iommu.attach io ~source:5 : Iommu.domain);
  (match Iommu.translate io ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
   | `Msi -> ()
   | `Phys _ | `Fault _ -> Alcotest.fail "VT-d implicit MSI mapping missing");
  (* AMD: MSI writes fault unless explicitly mapped. *)
  let amd = Iommu.create ~mode:Iommu.Amd_vi () in
  let d = Iommu.attach amd ~source:5 in
  (match Iommu.translate amd ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "AMD must not have an implicit MSI mapping");
  Iommu.map amd d ~iova:Bus.msi_window_base ~phys:Bus.msi_window_base
    ~len:(Bus.msi_window_limit - Bus.msi_window_base) ~writable:true;
  match Iommu.translate amd ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
  | `Msi -> ()
  | `Phys _ | `Fault _ -> Alcotest.fail "mapped MSI window should deliver"

let test_iommu_unmap_flush () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x1000 ~phys:0x2000 ~len:4096 ~writable:true;
  let flushes = iotlb_flushes io in
  Iommu.unmap io d ~iova:0x1000 ~len:4096;
  Alcotest.(check int) "unmap flushes the IOTLB" (flushes + 1) (iotlb_flushes io);
  match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_read with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "unmapped address must fault"

let test_iotlb_counters () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:8192 ~writable:true;
  let s0 = iotlb_stats io in
  Alcotest.(check (list int)) "cold cache" [ 0; 0 ] [ s0.hits; s0.misses ];
  (* Scripted pattern: miss, hit, miss (new page), hit, hit. *)
  List.iter
    (fun addr ->
       match Iommu.translate io ~source:5 ~addr ~dir:Bus.Dma_read with
       | `Phys _ -> ()
       | `Msi | `Fault _ -> Alcotest.fail "expected translation")
    [ 0x10123; 0x10456; 0x11000; 0x11abc; 0x10789 ];
  let s1 = iotlb_stats io in
  Alcotest.(check (list int)) "2 walks, 3 hits" [ 3; 2 ] [ s1.hits; s1.misses ];
  (* A fault on an unmapped page pays a walk, not a hit. *)
  (match Iommu.translate io ~source:5 ~addr:0x40000 ~dir:Bus.Dma_read with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "expected fault");
  let s2 = iotlb_stats io in
  Alcotest.(check (list int)) "fault counted as miss" [ 3; 3 ] [ s2.hits; s2.misses ]

let test_iotlb_conflict_eviction () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  (* Pages v and v + iotlb_slots index into the same direct-mapped slot. *)
  let stride = Iommu.iotlb_slots * 4096 in
  Iommu.map io d ~iova:0x100000 ~phys:0x200000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:(0x100000 + stride) ~phys:0x300000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x100000 ~dir:Bus.Dma_read);
  ignore (Iommu.translate io ~source:5 ~addr:(0x100000 + stride) ~dir:Bus.Dma_read);
  let s = iotlb_stats io in
  Alcotest.(check int) "conflict evicts" 1 s.evictions;
  (* The evicted page still translates correctly (via a fresh walk). *)
  match Iommu.translate io ~source:5 ~addr:0x100123 ~dir:Bus.Dma_read with
  | `Phys p -> Alcotest.(check int) "re-walk correct" 0x200123 p
  | `Msi | `Fault _ -> Alcotest.fail "expected translation"

let test_iotlb_no_stale_after_unmap () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  (* Warm the IOTLB, then unmap: a subsequent hit would be a containment
     hole (the device could still reach the old physical page). *)
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_write);
  ignore (Iommu.translate io ~source:5 ~addr:0x10004 ~dir:Bus.Dma_write);
  Iommu.unmap io d ~iova:0x10000 ~len:4096;
  (match Iommu.translate io ~source:5 ~addr:0x10008 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "stale IOTLB entry survived unmap");
  (* Same for the writable bit: remap read-only, the cached writable pte
     must not resurrect write access. *)
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:false;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  (match Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "stale writable bit survived remap");
  (* And detach: the passthrough identity path must not leak cached pages
     of the dead domain. *)
  Iommu.map io d ~iova:0x30000 ~phys:0x50000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read);
  Iommu.detach io ~source:5;
  (match Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read with
   | `Phys p -> Alcotest.(check int) "identity after detach, not cached phys" 0x30000 p
   | `Msi | `Fault _ -> Alcotest.fail "expected passthrough after detach");
  (* Re-attach: an empty domain faults everywhere, cache included. *)
  let d2 = Iommu.attach io ~source:5 in
  ignore (d2 : Iommu.domain);
  match Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "stale entry survived detach/attach"

let test_iotlb_flush_scrubs () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  let s0 = iotlb_stats io in
  Iommu.iotlb_flush io d;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  let s1 = iotlb_stats io in
  Alcotest.(check int) "flush forces a re-walk" (s0.misses + 1) s1.misses;
  Alcotest.(check int) "no phantom hit" s0.hits s1.hits

let test_iommu_mappings_merge () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:0x11000 ~phys:0x21000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:0x20000 ~phys:0x30000 ~len:4096 ~writable:true;
  Alcotest.(check (list (pair int int)))
    "contiguous runs merged"
    [ (0x10000, 8192); (0x20000, 4096) ]
    (List.map (fun (iova, _, len, _) -> (iova, len)) (Iommu.mappings d))

let test_iommu_ir () =
  let io = Iommu.create ~mode:mode_vtd_ir () in
  Alcotest.(check bool) "available" true (Iommu.ir_available io);
  Alcotest.(check bool) "unknown blocked" false (Iommu.ir_check io ~source:5 ~vector:33);
  Iommu.ir_allow io ~source:5 ~vector:33;
  Alcotest.(check bool) "allowed" true (Iommu.ir_check io ~source:5 ~vector:33);
  Alcotest.(check bool) "other vector blocked" false (Iommu.ir_check io ~source:5 ~vector:34);
  Iommu.ir_block_source io ~source:5;
  Alcotest.(check bool) "blocked after escalation" false (Iommu.ir_check io ~source:5 ~vector:33);
  (* Without IR hardware, everything passes (the testbed weakness). *)
  let noir = Iommu.create ~mode:mode_vtd () in
  Alcotest.(check bool) "no IR = no filtering" true (Iommu.ir_check noir ~source:5 ~vector:99)

(* ---- ioport / IOPB ---- *)

let test_iopb () =
  let b = Ioport.Iopb.none () in
  Alcotest.(check bool) "denied initially" false (Ioport.Iopb.allows b ~port:0xC000 ~size:1);
  Ioport.Iopb.grant b ~base:0xC000 ~len:0x20;
  Alcotest.(check bool) "granted" true (Ioport.Iopb.allows b ~port:0xC01F ~size:1);
  Alcotest.(check bool) "straddling the end denied" false
    (Ioport.Iopb.allows b ~port:0xC01F ~size:2);
  Alcotest.(check (list (pair int int))) "ranges" [ (0xC000, 0x20) ]
    (Ioport.Iopb.granted_ranges b);
  Ioport.Iopb.revoke b ~base:0xC000 ~len:0x20;
  Alcotest.(check bool) "revoked" false (Ioport.Iopb.allows b ~port:0xC000 ~size:1)

let test_ioport_gp () =
  let io = Ioport.create () in
  let last = ref (-1) in
  Ioport.register io ~base:0x70 ~len:2
    ~read:(fun ~off ~size:_ -> off + 100)
    ~write:(fun ~off:_ ~size:_ v -> last := v);
  let all = Ioport.Iopb.all () and none = Ioport.Iopb.none () in
  Alcotest.(check int) "kernel read" 101 (Ioport.read io ~iopb:all ~port:0x71 ~size:1);
  Ioport.write io ~iopb:all ~port:0x70 ~size:1 42;
  Alcotest.(check int) "kernel write" 42 !last;
  Alcotest.check_raises "user denied" (Ioport.General_protection 0x70) (fun () ->
      ignore (Ioport.read io ~iopb:none ~port:0x70 ~size:1 : int));
  Alcotest.(check int) "floating bus" 0xFF (Ioport.read io ~iopb:all ~port:0x500 ~size:1)

let test_ioport_overlap () =
  let io = Ioport.create () in
  Ioport.register io ~base:0x100 ~len:0x10 ~read:(fun ~off:_ ~size:_ -> 0)
    ~write:(fun ~off:_ ~size:_ _ -> ());
  Alcotest.check_raises "overlap rejected" (Invalid_argument "Ioport.register: overlap")
    (fun () ->
       Ioport.register io ~base:0x108 ~len:0x10 ~read:(fun ~off:_ ~size:_ -> 0)
         ~write:(fun ~off:_ ~size:_ _ -> ()))

(* ---- topology ---- *)

let mk_world () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 * 1024 * 1024) in
  let iommu = Iommu.create ~mode:mode_vtd () in
  let ioports = Ioport.create () in
  let topo = Pci_topology.create ~mem ~iommu ~ioports () in
  (eng, mem, iommu, topo)

let mk_nic eng topo medium mac_byte =
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 mac_byte) ~medium () in
  let bdf = Pci_topology.attach topo ~switch:(Pci_topology.root_switch topo) (E1000_dev.device nic) in
  (nic, bdf)

let test_topology_cfg_and_mmio () =
  let eng, _, _, topo = mk_world () in
  let medium = Net_medium.create eng () in
  let _nic, bdf = mk_nic eng topo medium '\x02' in
  Alcotest.(check int) "cfg vendor" 0x8086 (Pci_topology.cfg_read topo bdf ~off:0 ~size:2);
  let base, size = Option.get (Pci_topology.bar_region topo bdf ~bar:0) in
  Alcotest.(check int) "bar size" 0x20000 size;
  (* Memory decoding off: access faults. *)
  Alcotest.check_raises "mem decode off" (Phys_mem.Bus_error (base + 8)) (fun () ->
      ignore (Pci_topology.mmio_read topo ~addr:(base + 8) ~size:4 : int));
  Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2 Pci_cfg.cmd_mem_enable;
  ignore (Pci_topology.mmio_read topo ~addr:(base + 8) ~size:4 : int)

let test_topology_unknown_addr () =
  let _, _, _, topo = mk_world () in
  Alcotest.check_raises "no device claims" (Phys_mem.Bus_error 0xD0000000) (fun () ->
      ignore (Pci_topology.mmio_read topo ~addr:0xD0000000 ~size:4 : int))

let test_topology_bdf_assignment () =
  let eng, _, _, topo = mk_world () in
  let medium = Net_medium.create eng () in
  let _, bdf_a = mk_nic eng topo medium '\x02' in
  let _, bdf_b = mk_nic eng topo medium '\x03' in
  Alcotest.(check bool) "distinct BDFs" true (bdf_a <> bdf_b);
  let sw = Pci_topology.add_switch topo ~parent:(Pci_topology.root_switch topo) ~name:"sw" in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x04') ~medium () in
  let bdf_c = Pci_topology.attach topo ~switch:sw (E1000_dev.device nic) in
  Alcotest.(check bool) "switch gets its own bus" true (Bus.bdf_bus bdf_c <> Bus.bdf_bus bdf_a)

let test_bus_bdf () =
  let bdf = Bus.make_bdf ~bus:3 ~dev:31 ~fn:7 in
  Alcotest.(check int) "bus" 3 (Bus.bdf_bus bdf);
  Alcotest.(check int) "dev" 31 (Bus.bdf_dev bdf);
  Alcotest.(check int) "fn" 7 (Bus.bdf_fn bdf);
  Alcotest.(check string) "pp" "03:1f.7" (Bus.string_of_bdf bdf)

(* ---- net medium ---- *)

let test_medium_delivery () =
  let eng = Engine.create () in
  let m = Net_medium.create eng ~rate_bps:1_000_000_000 ~latency_ns:1000 () in
  let got = ref [] in
  let _a = Net_medium.attach m ~name:"a" ~rx:(fun f -> got := ("a", Bytes.length f) :: !got) in
  let b = Net_medium.attach m ~name:"b" ~rx:(fun f -> got := ("b", Bytes.length f) :: !got) in
  Net_medium.send m b (Bytes.make 100 'x');
  Engine.run eng;
  (* Only the other station hears it. *)
  Alcotest.(check (list (pair string int))) "unicast to peers" [ ("a", 100) ] !got;
  Alcotest.(check bool) "delivery delayed by wire time" true (Engine.now eng >= 1000)

let test_medium_serialization () =
  let eng = Engine.create () in
  let m = Net_medium.create eng ~rate_bps:1_000_000_000 ~latency_ns:0 () in
  let times = ref [] in
  let _a = Net_medium.attach m ~name:"a" ~rx:(fun _ -> times := Engine.now eng :: !times) in
  let b = Net_medium.attach m ~name:"b" ~rx:ignore in
  (* Two back-to-back frames serialize on the sender's line. *)
  Net_medium.send m b (Bytes.make 1500 'x');
  Net_medium.send m b (Bytes.make 1500 'x');
  Engine.run eng;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check bool) "second frame waits for the first" true (t2 >= 2 * t1)
  | _ -> Alcotest.fail "expected two deliveries"

(* ---- e1000 device model, driven raw ---- *)

let test_e1000_eeprom_mac () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let mac = Bytes.of_string "\x52\x54\x00\xAB\xCD\xEF" in
  let nic = E1000_dev.create eng ~mac ~medium () in
  let ops = Device.ops (E1000_dev.device nic) in
  ops.Device.mmio_write ~bar:0 ~off:E1000_dev.Regs.eerd ~size:4
    ((1 lsl 8) lor E1000_dev.Regs.eerd_start);
  let v = ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.eerd ~size:4 in
  Alcotest.(check bool) "done bit" true (v land E1000_dev.Regs.eerd_done <> 0);
  Alcotest.(check int) "word 1 = mac bytes 2,3" 0xAB00 ((v lsr 16) land 0xFFFF);
  Alcotest.(check bytes) "mac helper" mac (E1000_dev.mac nic)

let test_e1000_icr_read_clears () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let ops = Device.ops (E1000_dev.device nic) in
  ops.Device.mmio_write ~bar:0 ~off:E1000_dev.Regs.ics ~size:4 E1000_dev.Regs.int_txdw;
  Alcotest.(check int) "cause latched" E1000_dev.Regs.int_txdw
    (ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.icr ~size:4);
  Alcotest.(check int) "read cleared it" 0
    (ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.icr ~size:4)

(* ---- ne2k device model, driven raw ---- *)

let test_ne2k_remote_dma () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let nic = Ne2k_dev.create eng ~mac:(Bytes.of_string "\x52\x54\x00\x01\x02\x03") ~medium () in
  let ops = Device.ops (Ne2k_dev.device nic) in
  let outb off v = ops.Device.io_write ~bar:0 ~off ~size:1 v in
  let inb off = ops.Device.io_read ~bar:0 ~off ~size:1 in
  (* Write a pattern into card memory page 2 via remote DMA, read it back. *)
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_write);
  outb Ne2k_dev.Regs.rsar0 0x00;
  outb Ne2k_dev.Regs.rsar1 0x02;
  outb Ne2k_dev.Regs.rbcr0 4;
  outb Ne2k_dev.Regs.rbcr1 0;
  List.iter (fun v -> outb Ne2k_dev.Regs.dataport v) [ 0xDE; 0xAD; 0xBE; 0xEF ];
  Alcotest.(check bool) "RDC set after count exhausted" true
    (inb Ne2k_dev.Regs.isr land Ne2k_dev.Regs.isr_rdc <> 0);
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_read);
  outb Ne2k_dev.Regs.rsar0 0x00;
  outb Ne2k_dev.Regs.rsar1 0x02;
  outb Ne2k_dev.Regs.rbcr0 4;
  outb Ne2k_dev.Regs.rbcr1 0;
  let got = List.init 4 (fun _ -> inb Ne2k_dev.Regs.dataport) in
  Alcotest.(check (list int)) "roundtrip through card memory" [ 0xDE; 0xAD; 0xBE; 0xEF ] got

let test_ne2k_prom () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let mac = Bytes.of_string "\x52\x54\x00\xAA\xBB\xCC" in
  let nic = Ne2k_dev.create eng ~mac ~medium () in
  let ops = Device.ops (Ne2k_dev.device nic) in
  let outb off v = ops.Device.io_write ~bar:0 ~off ~size:1 v in
  let inb off = ops.Device.io_read ~bar:0 ~off ~size:1 in
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_read);
  outb Ne2k_dev.Regs.rsar0 0;
  outb Ne2k_dev.Regs.rsar1 0;
  outb Ne2k_dev.Regs.rbcr0 12;
  outb Ne2k_dev.Regs.rbcr1 0;
  let prom = List.init 12 (fun _ -> inb Ne2k_dev.Regs.dataport) in
  (* Doubled MAC bytes, as on real cards. *)
  List.iteri
    (fun i b ->
       Alcotest.(check int) (Printf.sprintf "prom[%d]" (2 * i)) (Char.code b)
         (List.nth prom (2 * i)))
    (List.init 6 (Bytes.get mac))

(* ---- wifi device model, driven raw ---- *)

let test_wifi_mailbox () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let wifi =
    Wifi_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium
      ~bss_list:[ { Wifi_dev.bssid = 9; ssid = "x"; signal_dbm = -30 } ] ()
  in
  let mem = Phys_mem.create ~size:(1 lsl 20) in
  ignore mem;
  let ops = Device.ops (Wifi_dev.device wifi) in
  let w32 off v = ops.Device.mmio_write ~bar:0 ~off ~size:4 v in
  let r32 off = ops.Device.mmio_read ~bar:0 ~off ~size:4 in
  (* Firmware gate. *)
  Alcotest.(check int) "fw not ready" 0 (r32 Wifi_dev.Regs.fw);
  w32 Wifi_dev.Regs.fw Wifi_dev.Regs.fw_magic;
  Alcotest.(check int) "fw ready" Wifi_dev.Regs.fw_ready (r32 Wifi_dev.Regs.fw);
  Alcotest.(check int) "bss table size" 1 (r32 Wifi_dev.Regs.bss_count);
  Alcotest.(check int) "bssid readable" 9 (r32 Wifi_dev.Regs.bss_table);
  Alcotest.(check bool) "not associated" true (Wifi_dev.associated wifi = None)

(* ---- hda device model: position wraps the cyclic buffer ---- *)

let test_hda_position_wraps () =
  let eng = Engine.create () in
  let hda = Hda_dev.create eng ~byte_rate:1_000_000 () in
  let mem = Phys_mem.create ~size:(1 lsl 20) in
  let iommu = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
  let ioports = Ioport.create () in
  let topo = Pci_topology.create ~mem ~iommu ~ioports () in
  let bdf = Pci_topology.attach topo ~switch:(Pci_topology.root_switch topo) (Hda_dev.device hda) in
  Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2
    (Pci_cfg.cmd_mem_enable lor Pci_cfg.cmd_bus_master);
  let ops = Device.ops (Hda_dev.device hda) in
  let w32 off v = ops.Device.mmio_write ~bar:0 ~off ~size:4 v in
  let r32 off = ops.Device.mmio_read ~bar:0 ~off ~size:4 in
  (* Two BDL entries of one page each in phys memory. *)
  let bdl = Phys_mem.alloc_pages mem ~pages:1 in
  let pcm = Phys_mem.alloc_pages mem ~pages:2 in
  Phys_mem.write64 mem bdl (Int64.of_int pcm);
  Phys_mem.write32 mem (bdl + 8) 4096;
  Phys_mem.write32 mem (bdl + 12) 0;
  Phys_mem.write64 mem (bdl + 16) (Int64.of_int (pcm + 4096));
  Phys_mem.write32 mem (bdl + 24) 4096;
  Phys_mem.write32 mem (bdl + 28) 0;
  w32 Hda_dev.Regs.sd0_bdpl bdl;
  w32 Hda_dev.Regs.sd0_bdpu 0;
  w32 Hda_dev.Regs.sd0_cbl 8192;
  w32 Hda_dev.Regs.sd0_lvi 1;
  w32 Hda_dev.Regs.sd0_ctl Hda_dev.Regs.sdctl_run;
  (* 1 MB/s for 20 ms = ~20 KB consumed: position must have wrapped. *)
  Engine.run ~max_time:20_000_000 eng;
  Alcotest.(check bool) "bytes consumed" true (Hda_dev.bytes_played hda > 8192);
  Alcotest.(check bool) "LPIB wrapped inside CBL" true (r32 Hda_dev.Regs.sd0_lpib < 8192);
  Alcotest.(check bool) "buffers completed repeatedly" true (Hda_dev.buffers_completed hda >= 2)

(* ---- topology: absent devices ---- *)

let test_cfg_of_missing_device () =
  let _, _, _, topo = mk_world () in
  Alcotest.(check int) "all-ones like real hardware" 0xFFFF
    (Pci_topology.cfg_read topo 0x55 ~off:0 ~size:2)

let test_medium_broadcast_domain () =
  let eng = Engine.create () in
  let m = Net_medium.create eng () in
  let hits = ref 0 in
  let _a = Net_medium.attach m ~name:"a" ~rx:(fun _ -> incr hits) in
  let _b = Net_medium.attach m ~name:"b" ~rx:(fun _ -> incr hits) in
  let c = Net_medium.attach m ~name:"c" ~rx:(fun _ -> incr hits) in
  Net_medium.send m c (Bytes.make 64 'x');
  Engine.run eng;
  Alcotest.(check int) "both other stations hear it" 2 !hits;
  Alcotest.(check int) "frame counted once" 1 (Net_medium.frames_sent m)

(* ---- usb device models ---- *)

let test_usb_storage_scsi () =
  let disk = Usb_device.storage ~name:"d" ~blocks:8 in
  Usb_device.set_address disk 1;
  (* CBW for READ CAPACITY *)
  let cb = Bytes.make 16 '\000' in
  Bytes.set cb 0 '\x25';
  let cbw = Bytes.make 31 '\000' in
  Bytes.set_int32_le cbw 0 0x43425355l;
  Bytes.set_int32_le cbw 4 7l;
  Bytes.set cbw 12 '\x80';
  Bytes.set cbw 14 '\x0A';
  Bytes.blit cb 0 cbw 15 10;
  (match Usb_device.endpoint_out disk ~ep:1 ~data:cbw with
   | Usb_device.Done _ -> ()
   | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "CBW rejected");
  (match Usb_device.endpoint_in disk ~ep:2 ~len:8 with
   | Usb_device.Done d ->
     Alcotest.(check int32) "last LBA" 7l (Bytes.get_int32_be d 0);
     Alcotest.(check int32) "block size" 512l (Bytes.get_int32_be d 4)
   | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "no capacity data");
  match Usb_device.endpoint_in disk ~ep:2 ~len:13 with
  | Usb_device.Done csw ->
    Alcotest.(check int32) "CSW signature" 0x53425355l (Bytes.get_int32_le csw 0);
    Alcotest.(check char) "status ok" '\000' (Bytes.get csw 12)
  | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "no CSW"

let test_usb_kbd_reports () =
  let kbd = Usb_device.keyboard ~name:"k" in
  (match Usb_device.endpoint_in kbd ~ep:1 ~len:8 with
   | Usb_device.Nak -> ()
   | Usb_device.Done _ | Usb_device.Stall -> Alcotest.fail "idle keyboard must NAK");
  Usb_device.keyboard_press kbd ~key:0x1D;
  match Usb_device.endpoint_in kbd ~ep:1 ~len:8 with
  | Usb_device.Done r -> Alcotest.(check char) "keycode in byte 2" '\x1d' (Bytes.get r 2)
  | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "report expected"

(* ---- property tests ---- *)

let qcheck_cases =
  [ QCheck.Test.make ~name:"phys_mem write/read roundtrip" ~count:200
      QCheck.(pair (int_bound 60000) (string_of_size Gen.(int_range 1 5000)))
      (fun (addr, s) ->
         let m = Phys_mem.create ~size:(1 lsl 17) in
         Phys_mem.write m ~addr (Bytes.of_string s);
         Bytes.to_string (Phys_mem.read m ~addr ~len:(String.length s)) = s);
    QCheck.Test.make ~name:"iommu map then translate every page" ~count:100
      QCheck.(pair (int_bound 200) (int_bound 30))
      (fun (page, npages) ->
         let npages = npages + 1 in
         let io = Iommu.create ~mode:mode_vtd () in
         let d = Iommu.attach io ~source:1 in
         let iova = 0x40000000 + (page * 4096) in
         Iommu.map io d ~iova ~phys:0x100000 ~len:(npages * 4096) ~writable:true;
         List.for_all
           (fun i ->
              match
                Iommu.translate io ~source:1 ~addr:(iova + (i * 4096) + 7) ~dir:Bus.Dma_write
              with
              | `Phys p -> p = 0x100000 + (i * 4096) + 7
              | `Msi | `Fault _ -> false)
           (List.init npages Fun.id));
    QCheck.Test.make ~name:"iopb grant ranges reported exactly" ~count:200
      QCheck.(pair (int_bound 60000) (int_range 1 100))
      (fun (base, len) ->
         let b = Ioport.Iopb.none () in
         Ioport.Iopb.grant b ~base ~len;
         Ioport.Iopb.granted_ranges b = [ (base, len) ]) ]

let suite =
  [ Alcotest.test_case "phys_mem: rw" `Quick test_phys_rw;
    Alcotest.test_case "phys_mem: cross page" `Quick test_phys_cross_page;
    Alcotest.test_case "phys_mem: bounds" `Quick test_phys_bounds;
    Alcotest.test_case "phys_mem: allocator" `Quick test_phys_alloc;
    Alcotest.test_case "phys_mem: exhaustion" `Quick test_phys_exhaustion;
    Alcotest.test_case "pci_cfg: ids" `Quick test_cfg_ids;
    Alcotest.test_case "pci_cfg: BAR sizing" `Quick test_cfg_bar_sizing;
    Alcotest.test_case "pci_cfg: MSI capability" `Quick test_cfg_msi;
    Alcotest.test_case "pci_cfg: command bits" `Quick test_cfg_command_bits;
    Alcotest.test_case "pci_cfg: rejects sub-page BAR" `Quick test_cfg_rejects_tiny_bar;
    Alcotest.test_case "iommu: translate" `Quick test_iommu_translate;
    Alcotest.test_case "iommu: passthrough" `Quick test_iommu_passthrough;
    Alcotest.test_case "iommu: write protection" `Quick test_iommu_write_protection;
    Alcotest.test_case "iommu: MSI quirks (Intel vs AMD)" `Quick test_iommu_msi_quirk;
    Alcotest.test_case "iommu: unmap + IOTLB flush" `Quick test_iommu_unmap_flush;
    Alcotest.test_case "iommu: IOTLB hit/miss counters" `Quick test_iotlb_counters;
    Alcotest.test_case "iommu: IOTLB conflict eviction" `Quick test_iotlb_conflict_eviction;
    Alcotest.test_case "iommu: no stale IOTLB after unmap/detach" `Quick
      test_iotlb_no_stale_after_unmap;
    Alcotest.test_case "iommu: iotlb_flush scrubs cache" `Quick test_iotlb_flush_scrubs;
    Alcotest.test_case "iommu: mappings merge" `Quick test_iommu_mappings_merge;
    Alcotest.test_case "iommu: interrupt remapping" `Quick test_iommu_ir;
    Alcotest.test_case "ioport: IOPB" `Quick test_iopb;
    Alcotest.test_case "ioport: GP fault" `Quick test_ioport_gp;
    Alcotest.test_case "ioport: overlap" `Quick test_ioport_overlap;
    Alcotest.test_case "topology: cfg + mmio decode" `Quick test_topology_cfg_and_mmio;
    Alcotest.test_case "topology: unknown address" `Quick test_topology_unknown_addr;
    Alcotest.test_case "topology: BDF assignment" `Quick test_topology_bdf_assignment;
    Alcotest.test_case "bus: BDF packing" `Quick test_bus_bdf;
    Alcotest.test_case "medium: delivery" `Quick test_medium_delivery;
    Alcotest.test_case "medium: serialization" `Quick test_medium_serialization;
    Alcotest.test_case "e1000: EEPROM MAC" `Quick test_e1000_eeprom_mac;
    Alcotest.test_case "e1000: ICR read-clear" `Quick test_e1000_icr_read_clears;
    Alcotest.test_case "ne2k: remote DMA" `Quick test_ne2k_remote_dma;
    Alcotest.test_case "ne2k: PROM" `Quick test_ne2k_prom;
    Alcotest.test_case "wifi: firmware gate + bss table" `Quick test_wifi_mailbox;
    Alcotest.test_case "hda: position wraps" `Quick test_hda_position_wraps;
    Alcotest.test_case "topology: missing device reads -1" `Quick test_cfg_of_missing_device;
    Alcotest.test_case "medium: broadcast domain" `Quick test_medium_broadcast_domain;
    Alcotest.test_case "usb: storage SCSI" `Quick test_usb_storage_scsi;
    Alcotest.test_case "usb: keyboard reports" `Quick test_usb_kbd_reports ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
