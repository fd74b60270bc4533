(* §5.2: every attack scenario must come out the way the paper says —
   including the honest negative results (trusted-driver baseline owns the
   machine; VT-d without interrupt remapping cannot stop the MSI-DMA
   storm). *)

let check ?(expect = true) outcome () =
  let open Scenarios in
  Alcotest.(check bool)
    (Printf.sprintf "%s [%s] — %s" outcome.attack outcome.config outcome.evidence)
    expect outcome.contained

let suite =
  let open Scenarios in
  [ Alcotest.test_case "trusted driver leaks (baseline)" `Quick
      (fun () -> check ~expect:false (dma_read_exfiltration ~sud:false) ());
    Alcotest.test_case "SUD blocks DMA read" `Quick
      (fun () -> check (dma_read_exfiltration ~sud:true) ());
    Alcotest.test_case "SUD blocks a DMA straddling the grant" `Quick
      (fun () -> check (dma_straddle ()) ());
    Alcotest.test_case "SUD blocks DMA write" `Quick
      (fun () -> check (dma_write_corruption ()) ());
    Alcotest.test_case "P2P DMA succeeds without ACS" `Quick
      (fun () -> check ~expect:false (peer_to_peer ~acs:false) ());
    Alcotest.test_case "P2P DMA blocked with ACS" `Quick
      (fun () -> check (peer_to_peer ~acs:true) ());
    Alcotest.test_case "spoofed requester leaks without validation" `Quick
      (fun () -> check ~expect:false (source_spoofing ~validation:false) ());
    Alcotest.test_case "source validation blocks spoofing" `Quick
      (fun () -> check (source_spoofing ~validation:true) ());
    Alcotest.test_case "interrupt storm masked" `Quick
      (fun () -> check (interrupt_storm ()) ());
    Alcotest.test_case "MSI-DMA storm: testbed is vulnerable" `Quick
      (fun () ->
         check ~expect:false
           (msi_dma_storm ~iommu:(Iommu.Intel_vtd { interrupt_remapping = false }))
           ());
    Alcotest.test_case "MSI-DMA storm: interrupt remapping contains" `Quick
      (fun () ->
         check (msi_dma_storm ~iommu:(Iommu.Intel_vtd { interrupt_remapping = true })) ());
    Alcotest.test_case "MSI-DMA storm: AMD unmap contains" `Quick
      (fun () -> check (msi_dma_storm ~iommu:Iommu.Amd_vi) ());
    Alcotest.test_case "TOCTOU defeated by defensive copy" `Quick
      (fun () -> check (toctou ~defensive_copy:true) ());
    Alcotest.test_case "TOCTOU succeeds without copy" `Quick
      (fun () -> check ~expect:false (toctou ~defensive_copy:false) ());
    Alcotest.test_case "hung driver stays abortable" `Quick
      (fun () -> check (driver_hang ()) ());
    Alcotest.test_case "config space writes filtered" `Quick
      (fun () -> check (config_space ()) ());
    Alcotest.test_case "allocation bomb hits rlimit" `Quick
      (fun () -> check (allocation_bomb ()) ());
    Alcotest.test_case "IO-port scan blocked by IOPB" `Quick
      (fun () -> check (io_port_scan ()) ());
    Alcotest.test_case "downcall flood stays schedulable" `Quick
      (fun () -> check (downcall_flood ()) ());
    Alcotest.test_case "kill -9 and restart recovers" `Quick
      (fun () -> check (kill_and_restart ()) ());
    Alcotest.test_case "hung driver detected by heartbeat and restarted" `Quick
      (fun () -> check (driver_hang_recovery ()) ());
    Alcotest.test_case "crash loop ends in quarantine" `Quick
      (fun () -> check (crash_loop_quarantine ()) ()) ]
