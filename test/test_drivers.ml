(* Driver-level edge cases: ring exhaustion, ioctls, stop semantics, and
   the proxy's defences against misbehaving drivers. *)

open Helpers

let null_net_callbacks =
  { Driver_api.nc_rx = (fun ~queue:_ ~addr:_ ~len:_ -> ());
    nc_tx_free = (fun ~queue:_ ~token:_ -> ());
    nc_tx_done = (fun ~queue:_ -> ());
    nc_carrier = ignore }

(* Probe the e1000 driver natively with our own callbacks. *)
let probe_native k bdf callbacks =
  let pdev = ok_or_fail "pcidev" (Kenv_native.pcidev k bdf ~label:"t") in
  let env = Kenv_native.env k ~label:"t" in
  ok_or_fail "probe" (E1000.driver.Driver_api.nd_probe env pdev callbacks)

let mk_txbuf k addr len =
  { Driver_api.txb_addr = addr;
    txb_len = len;
    txb_token = 0;
    txb_read = (fun () -> Phys_mem.read k.Kernel.mem ~addr ~len) }

let test_e1000_ring_full () =
  run_in_kernel setup_duo (fun k duo ->
      let inst = probe_native k duo.bdf_a null_net_callbacks in
      ok_or_fail "open" (inst.Driver_api.ni_open ());
      let buf = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
      (* Fill the TX ring atomically (event context, like a burst arriving
         faster than the device drains): the 256-slot ring must report
         Busy after capacity-1 frames. *)
      let sent = ref 0 and busy = ref false in
      ignore
        (Engine.schedule_now k.Kernel.eng (fun () ->
             while not !busy do
               match inst.Driver_api.ni_xmit ~queue:0 (mk_txbuf k buf 64) with
               | `Ok -> incr sent
               | `Busy -> busy := true
             done)
         : Engine.handle);
      ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
      Alcotest.(check bool) "hit Busy" true !busy;
      Alcotest.(check int) "ring capacity minus one" (E1000.tx_ring_size - 1) !sent;
      (* The device drains; all queued frames hit the wire. *)
      Alcotest.(check int) "all frames transmitted" !sent (E1000_dev.tx_frames duo.nic_a))

let test_e1000_ioctl () =
  run_in_kernel setup_duo (fun k duo ->
      let inst = probe_native k duo.bdf_a null_net_callbacks in
      Alcotest.(check (result int string)) "MII link up" (Ok 1)
        (inst.Driver_api.ni_ioctl ~cmd:Netdev.ioctl_mii_status ~arg:0);
      Alcotest.(check (result int string)) "speed" (Ok 1000)
        (inst.Driver_api.ni_ioctl ~cmd:Netdev.ioctl_link_speed ~arg:0);
      Alcotest.(check bool) "unknown ioctl rejected" true
        (Result.is_error (inst.Driver_api.ni_ioctl ~cmd:0x9999 ~arg:0)))

let test_e1000_stop_disables_rx () =
  run_in_kernel setup_duo (fun k duo ->
      let inst = probe_native k duo.bdf_a null_net_callbacks in
      ok_or_fail "open" (inst.Driver_api.ni_open ());
      inst.Driver_api.ni_stop ();
      (* A frame arriving after stop is dropped by the device (RCTL off). *)
      let port = Net_medium.attach duo.medium ~rx:ignore in
      Net_medium.send duo.medium port (Bytes.make 64 'z');
      ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
      Alcotest.(check int) "no frames received" 0 (E1000_dev.rx_frames duo.nic_a);
      Alcotest.(check bool) "counted as drop" true (E1000_dev.rx_dropped duo.nic_a >= 1))

let test_e1000_reopen () =
  run_in_kernel setup_duo (fun k duo ->
      ignore duo;
      let inst = probe_native k duo.bdf_a null_net_callbacks in
      ok_or_fail "open" (inst.Driver_api.ni_open ());
      inst.Driver_api.ni_stop ();
      ok_or_fail "reopen" (inst.Driver_api.ni_open ());
      inst.Driver_api.ni_stop ())

let test_ne2k_many_packets () =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let ne2k = Ne2k_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
       let peer = E1000_dev.create k.Kernel.eng ~mac:mac_b ~medium () in
       let bdf_a = Kernel.attach_pci k (Ne2k_dev.device ne2k) in
       let bdf_b = Kernel.attach_pci k (E1000_dev.device peer) in
       (bdf_a, bdf_b))
    (fun k (bdf_a, bdf_b) ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:bdf_a ~name:"eth0" Ne2k.driver) in
       let dev_a = Driver_host.netdev s in
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net dev_a);
       let dev_b = up_native ~name:"eth1" k bdf_b in
       let sa = Netstack.udp_bind k.Kernel.net dev_a ~port:68 in
       let sb = Netstack.udp_bind k.Kernel.net dev_b ~port:67 in
       (* Enough traffic to wrap the ne2k's receive ring several times. *)
       for i = 1 to 50 do
         ignore
           (Netstack.udp_sendto k.Kernel.net sb ~dst:(Netdev.mac dev_a) ~dst_port:68
              (Bytes.make 400 (Char.chr (i land 0xff)))
            : [ `Sent | `Dropped ]);
         (* Paced: the PIO driver is slow by design. *)
         ignore (Fiber.sleep k.Kernel.eng 500_000 : Fiber.wake)
       done;
       let received = ref 0 in
       let continue_ = ref true in
       while !continue_ do
         match Netstack.udp_pending sa with
         | 0 -> continue_ := false
         | _ ->
           ignore (Netstack.udp_recv k.Kernel.net sa : (bytes * (bytes * int)) option);
           incr received
       done;
       Alcotest.(check bool)
         (Printf.sprintf "most packets survived ring wraps (%d/50)" !received) true
         (!received >= 45))

let test_iwl_requires_open () =
  run_in_kernel
    (fun k ->
       let air = Net_medium.create k.Kernel.eng () in
       let wifi = Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air ~bss_list:[] () in
       Kernel.attach_pci k (Wifi_dev.device wifi))
    (fun k bdf ->
       let pdev = ok_or_fail "pcidev" (Kenv_native.pcidev k bdf ~label:"t") in
       let env = Kenv_native.env k ~label:"t" in
       let cb =
         { Driver_api.wc_net = null_net_callbacks;
           wc_scan_done = ignore;
           wc_bss_changed = ignore }
       in
       let wi = ok_or_fail "probe" (Iwl.driver.Driver_api.wd_probe env pdev cb) in
       Alcotest.(check bool) "scan before open rejected" true
         (Result.is_error (wi.Driver_api.wi_scan ()));
       Alcotest.(check bool) "assoc before open rejected" true
         (Result.is_error (wi.Driver_api.wi_associate ~bssid:1));
       Alcotest.(check bool) "bad rate index rejected" true
         (Result.is_error (wi.Driver_api.wi_set_rate 99)))

let test_hda_write_backpressure () =
  run_in_kernel
    (fun k ->
       let hda = Hda_dev.create k.Kernel.eng () in
       Kernel.attach_pci k (Hda_dev.device hda))
    (fun k bdf ->
       let pdev = ok_or_fail "pcidev" (Kenv_native.pcidev k bdf ~label:"t") in
       let env = Kenv_native.env k ~label:"t" in
       let au =
         ok_or_fail "probe"
           (Hda.driver.Driver_api.ad_probe env pdev { Driver_api.ac_period_elapsed = ignore })
       in
       (* The pending queue is bounded: unlimited writes return partial
          acceptance rather than growing without bound. *)
       let total = ref 0 in
       for _ = 1 to 100 do
         total := !total + au.Driver_api.au_write (Bytes.make 4096 'p')
       done;
       Alcotest.(check bool) "accepted bounded amount" true (!total <= 8 * Hda.period_bytes))

(* ---- proxy defences ---- *)

let test_proxy_rejects_bogus_rx_addr () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let drv =
        Mal_nic.driver
          ~on_open:(fun t ->
              (* netif_rx with an address outside every DMA region. *)
              t.Mal_nic.cb.Driver_api.nc_rx ~queue:0 ~addr:0xDEAD0000 ~len:64;
              (* and one with an insane length *)
              t.Mal_nic.cb.Driver_api.nc_rx ~queue:0 ~addr:t.Mal_nic.buf.Driver_api.dma_addr
                ~len:1_000_000;
              Ok ())
          ()
      in
      let s = ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a drv) in
      ignore (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
      ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake);
      Alcotest.(check int) "both rejected" 2
        (Proxy_net.rx_validation_failures (Driver_host.proxy s));
      Alcotest.(check int) "nothing reached the stack" 0
        (Netdev.stats (Driver_host.netdev s)).Netdev.rx_packets)

let test_proxy_marks_hung_on_ioctl () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      (* Opens fine, but ioctl never returns. *)
      let drv =
        { Driver_api.nd_name = "sloth";
          nd_ids = [ (0x8086, 0x10D3) ];
          nd_probe =
            (fun env _pdev _cb ->
               Ok
                 { Driver_api.ni_mac = Bytes.make 6 '\x02';
                   ni_tx_queues = 1;
                   ni_open = (fun () -> Ok ());
                   ni_stop = ignore;
                   ni_xmit = (fun ~queue:_ _ -> `Ok);
                   ni_ioctl =
                     (fun ~cmd:_ ~arg:_ ->
                        let rec forever () =
                          env.Driver_api.env_msleep 1_000;
                          forever ()
                        in
                        forever ()) }) }
      in
      let s = ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a drv) in
      let dev = Driver_host.netdev s in
      ok_or_fail "open" (Netstack.ifconfig_up k.Kernel.net dev);
      (match Netstack.dev_ioctl k.Kernel.net dev ~cmd:1 ~arg:0 with
       | Error e -> Alcotest.(check string) "hung error" "driver hung" e
       | Ok _ -> Alcotest.fail "ioctl should hang");
      Alcotest.(check bool) "proxy flagged the driver" true (Proxy_net.hung (Driver_host.proxy s));
      Alcotest.(check bool) "klog advice" true
        (Klog.matching k.Kernel.klog "kill and restart" <> []))

let test_uml_worker_pool_used () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s = ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a E1000.driver) in
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
      (* open is a may-block callback: it must have gone to a worker. *)
      Alcotest.(check bool) "worker dispatches > 0" true
        (Sud_uml.worker_dispatches (Driver_host.uml s) > 0);
      Alcotest.(check bool) "upcalls handled" true
        (Sud_uml.upcalls_handled (Driver_host.uml s) > 0))

let test_wifi_data_path_sud () =
  run_in_kernel
    (fun k ->
       let air = Net_medium.create k.Kernel.eng () in
       let wifi =
         Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air
           ~bss_list:[ { Wifi_dev.bssid = 0x1A; ssid = "ap"; signal_dbm = -40 } ]
           ()
       in
       let peer = E1000_dev.create k.Kernel.eng ~mac:mac_b ~medium:air () in
       let bdf_w = Kernel.attach_pci k (Wifi_dev.device wifi) in
       let bdf_p = Kernel.attach_pci k (E1000_dev.device peer) in
       (bdf_w, bdf_p))
    (fun k (bdf_w, bdf_p) ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start" (Driver_host.launch k sp Driver_host.wifi ~bdf:bdf_w Iwl.driver) in
       let wdev = Driver_host.netdev s in
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net wdev);
       ok_or_fail "assoc" (Proxy_wifi.associate (Driver_host.proxy s) ~bssid:0x1A);
       ignore (Fiber.sleep k.Kernel.eng 2_000_000 : Fiber.wake);
       let pdev = up_native ~name:"eth1" k bdf_p in
       let sw = Netstack.udp_bind k.Kernel.net wdev ~port:5000 in
       let sp2 = Netstack.udp_bind k.Kernel.net pdev ~port:5001 in
       (* Data over the air through the untrusted wireless driver. *)
       (match
          Netstack.udp_sendto k.Kernel.net sw ~dst:(Netdev.mac pdev) ~dst_port:5001
            (Bytes.of_string "over the air")
        with
        | `Sent -> ()
        | `Dropped -> Alcotest.fail "wifi tx dropped");
       (match Netstack.udp_recv k.Kernel.net sp2 with
        | Some (d, _) -> Alcotest.(check string) "wifi tx data" "over the air" (Bytes.to_string d)
        | None -> Alcotest.fail "nothing over the air");
       (match
          Netstack.udp_sendto k.Kernel.net sp2 ~dst:(Netdev.mac wdev) ~dst_port:5000
            (Bytes.of_string "back at you")
        with
        | `Sent -> ()
        | `Dropped -> Alcotest.fail "peer tx dropped");
       match Netstack.udp_recv k.Kernel.net sw with
       | Some (d, _) -> Alcotest.(check string) "wifi rx data" "back at you" (Bytes.to_string d)
       | None -> Alcotest.fail "nothing received by wifi")

let suite =
  [ Alcotest.test_case "e1000: TX ring full" `Quick test_e1000_ring_full;
    Alcotest.test_case "e1000: ioctls" `Quick test_e1000_ioctl;
    Alcotest.test_case "e1000: stop disables RX" `Quick test_e1000_stop_disables_rx;
    Alcotest.test_case "e1000: stop/reopen" `Quick test_e1000_reopen;
    Alcotest.test_case "ne2k: ring wraps under load" `Quick test_ne2k_many_packets;
    Alcotest.test_case "iwl: ops require open" `Quick test_iwl_requires_open;
    Alcotest.test_case "hda: write backpressure" `Quick test_hda_write_backpressure;
    Alcotest.test_case "proxy: bogus netif_rx rejected" `Quick test_proxy_rejects_bogus_rx_addr;
    Alcotest.test_case "proxy: hung ioctl detected" `Quick test_proxy_marks_hung_on_ioctl;
    Alcotest.test_case "uml: worker pool used" `Quick test_uml_worker_pool_used;
    Alcotest.test_case "wifi: data path under SUD" `Quick test_wifi_data_path_sud ]
