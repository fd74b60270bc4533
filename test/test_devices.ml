(* Device-class coverage: every proxy class from Figure 5 moving real data
   through an untrusted driver process. *)

open Helpers

let test_ne2k_sud () =
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       let ne2k = Ne2k_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
       let e1000 = E1000_dev.create k.Kernel.eng ~mac:mac_b ~medium () in
       let bdf_a = Kernel.attach_pci k (Ne2k_dev.device ne2k) in
       let bdf_b = Kernel.attach_pci k (E1000_dev.device e1000) in
       (bdf_a, bdf_b))
    (fun k (bdf_a, bdf_b) ->
       let sp = Safe_pci.init k in
       let started =
         ok_or_fail "start ne2k" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:bdf_a ~name:"eth0" Ne2k.driver)
       in
       let dev_a = Driver_host.netdev started in
       Alcotest.(check bytes) "PROM MAC" mac_a (Netdev.mac dev_a);
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net dev_a);
       let dev_b = up_native ~name:"eth1" k bdf_b in
       let sock_a = Netstack.udp_bind k.Kernel.net dev_a ~port:68 in
       let sock_b = Netstack.udp_bind k.Kernel.net dev_b ~port:67 in
       (match
          Netstack.udp_sendto k.Kernel.net sock_a ~dst:(Netdev.mac dev_b) ~dst_port:67
            (Bytes.of_string "pio out")
        with
        | `Sent -> ()
        | `Dropped -> Alcotest.fail "ne2k tx dropped");
       (match Netstack.udp_recv k.Kernel.net sock_b with
        | Some (d, _) -> Alcotest.(check string) "ne2k tx" "pio out" (Bytes.to_string d)
        | None -> Alcotest.fail "nothing from ne2k");
       (match
          Netstack.udp_sendto k.Kernel.net sock_b ~dst:(Netdev.mac dev_a) ~dst_port:68
            (Bytes.of_string "pio in")
        with
        | `Sent -> ()
        | `Dropped -> Alcotest.fail "peer tx dropped");
       match Netstack.udp_recv k.Kernel.net sock_a with
       | Some (d, _) -> Alcotest.(check string) "ne2k rx" "pio in" (Bytes.to_string d)
       | None -> Alcotest.fail "nothing to ne2k")

let wifi_bsses =
  [ { Wifi_dev.bssid = 0x1A; ssid = "csail"; signal_dbm = -40 };
    { Wifi_dev.bssid = 0x2B; ssid = "stata-guest"; signal_dbm = -60 } ]

let test_wifi_sud () =
  run_in_kernel
    (fun k ->
       let air = Net_medium.create k.Kernel.eng () in
       let wifi =
         Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air ~bss_list:wifi_bsses ()
       in
       let bdf = Kernel.attach_pci k (Wifi_dev.device wifi) in
       (wifi, bdf))
    (fun k (wifi, bdf) ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start iwl" (Driver_host.launch k sp Driver_host.wifi ~bdf Iwl.driver) in
       let proxy = Driver_host.proxy s in
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
       (* Mirrored state answers without an upcall, even in atomic context
          (paper §3.1.1). *)
       let rates = Preempt.with_atomic k.Kernel.preempt (fun () -> Proxy_wifi.bitrates proxy) in
       Alcotest.(check (list int)) "mirrored rates"
         (Array.to_list Wifi_dev.supported_rates) rates;
       let bssids = ok_or_fail "scan" (Proxy_wifi.scan proxy) in
       Alcotest.(check (list int)) "scan results" [ 0x1A; 0x2B ] bssids;
       ok_or_fail "associate" (Proxy_wifi.associate proxy ~bssid:0x1A);
       ignore (Fiber.sleep k.Kernel.eng 2_000_000 : Fiber.wake);
       Alcotest.(check (option int)) "associated" (Some 0x1A) (Wifi_dev.associated wifi);
       Alcotest.(check bool) "carrier on" true (Netdev.carrier (Driver_host.netdev s));
       (* Rate change queued from non-preemptable context. *)
       Preempt.with_atomic k.Kernel.preempt (fun () -> Proxy_wifi.set_rate proxy 5);
       ignore (Fiber.sleep k.Kernel.eng 2_000_000 : Fiber.wake);
       Alcotest.(check int) "rate applied" 54 (Wifi_dev.current_rate wifi);
       (* Roam: firmware-initiated BSS change propagates to the mirror. *)
       Wifi_dev.roam wifi ~bssid:0x2B;
       ignore (Fiber.sleep k.Kernel.eng 2_000_000 : Fiber.wake);
       Alcotest.(check bool) "bss change mirrored" true (Proxy_wifi.current_bss proxy <> None))

let test_audio_sud () =
  run_in_kernel
    (fun k ->
       let hda = Hda_dev.create k.Kernel.eng () in
       let bdf = Kernel.attach_pci k (Hda_dev.device hda) in
       (hda, bdf))
    (fun k (hda, bdf) ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start hda" (Driver_host.launch k sp Driver_host.audio ~bdf Hda.driver) in
       let proxy = Driver_host.proxy s in
       ok_or_fail "set volume" (Proxy_audio.set_volume proxy 42);
       Alcotest.(check int) "volume round trip" 42
         (ok_or_fail "get volume" (Proxy_audio.get_volume proxy));
       ok_or_fail "start stream" (Proxy_audio.start proxy);
       (* Feed some PCM and let the DAC chew through a few periods. *)
       let pcm = Bytes.init 2048 (fun i -> Char.chr (i land 0xff)) in
       for _ = 1 to 8 do
         ignore (Proxy_audio.write proxy pcm : int)
       done;
       Alcotest.(check bool) "period interrupt arrives" true
         (Proxy_audio.wait_period proxy ~timeout_ns:100_000_000);
       ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
       Alcotest.(check bool) "samples played" true (Hda_dev.bytes_played hda > 0);
       Alcotest.(check bool) "periods counted" true (Proxy_audio.periods_elapsed proxy >= 1);
       Alcotest.(check int) "device volume" 42 (Hda_dev.volume hda);
       (* PCM integrity: the stream is 4 periods of silence (primed before
          our writes arrived), then our 16 KiB pattern contiguously, then
          silence again.  Model that and compare additive checksums. *)
       let played = Hda_dev.bytes_played hda in
       let silence = 4 * Hda.period_bytes in
       let pattern_played = max 0 (min (played - silence) (8 * 2048)) in
       let expected = ref 0 in
       for j = 0 to pattern_played - 1 do
         expected := (!expected + (j land 0xff)) land 0x3FFFFFFF
       done;
       Alcotest.(check int) "PCM checksum matches what we queued" !expected
         (Hda_dev.audio_checksum hda))

let test_usb_storage_sud () =
  run_in_kernel
    (fun k ->
       let hci = Usb_hci_dev.create k.Kernel.eng ~ports:2 () in
       let disk = Usb_device.storage ~blocks:64 in
       let kbd = Usb_device.keyboard () in
       Usb_hci_dev.plug hci ~port:0 disk;
       Usb_hci_dev.plug hci ~port:1 kbd;
       let bdf = Kernel.attach_pci k (Usb_hci_dev.device hci) in
       (hci, disk, kbd, bdf))
    (fun k (_hci, disk, kbd, bdf) ->
       let sp = Safe_pci.init k in
       let s =
         ok_or_fail "start ehci"
           (Driver_host.launch k sp ~bdf
              (Driver_host.usb ~bind_storage:Ehci.bind_storage
                 ~bind_keyboard:Ehci.poll_keyboard)
              Ehci.driver)
       in
       let proxy = Driver_host.proxy s in
       let keys = ref [] in
       Proxy_usb.set_key_handler proxy (fun key -> keys := key :: !keys);
       (match Proxy_usb.wait_block proxy ~timeout_ns:2_000_000_000 with
        | Some cap -> Alcotest.(check int) "capacity" 64 cap
        | None -> Alcotest.fail "no storage registered");
       (* Write a pattern through the whole SUD+USB+SCSI stack and read it
          back, then verify against the backing store directly. *)
       let block = Bytes.init 512 (fun i -> Char.chr ((i * 7) land 0xff)) in
       ok_or_fail "write blocks" (Proxy_usb.write_blocks proxy ~lba:5 block);
       let back = ok_or_fail "read blocks" (Proxy_usb.read_blocks proxy ~lba:5 ~count:1) in
       Alcotest.(check bytes) "round trip" block back;
       Alcotest.(check bytes) "backing store" block (Usb_device.storage_peek disk ~lba:5);
       (* Keyboard events flow as input downcalls. *)
       Usb_device.keyboard_press kbd ~key:0x04;
       Usb_device.keyboard_press kbd ~key:0x05;
       let deadline = Engine.now k.Kernel.eng + 1_000_000_000 in
       while List.length !keys < 2 && Engine.now k.Kernel.eng < deadline do
         ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake)
       done;
       Alcotest.(check int) "keyboard queue drained" 0 (Usb_device.keyboard_pending kbd);
       Alcotest.(check (list int)) "keys" [ 0x04; 0x05 ] (List.rev !keys))

let test_uhci_storage_sud () =
  run_in_kernel
    (fun k ->
       let hci = Uhci_dev.create k.Kernel.eng ~ports:2 () in
       let disk = Usb_device.storage ~blocks:32 in
       let kbd = Usb_device.keyboard () in
       Uhci_dev.plug hci ~port:0 disk;
       Uhci_dev.plug hci ~port:1 kbd;
       let bdf = Kernel.attach_pci k (Uhci_dev.device hci) in
       (disk, kbd, bdf))
    (fun k (disk, kbd, bdf) ->
       let sp = Safe_pci.init k in
       let s =
         ok_or_fail "start uhci"
           (Driver_host.launch k sp ~bdf
              (Driver_host.usb ~bind_storage:Ehci.bind_storage
                 ~bind_keyboard:Ehci.poll_keyboard)
              Uhci.driver)
       in
       let proxy = Driver_host.proxy s in
       let keys = ref 0 in
       Proxy_usb.set_key_handler proxy (fun _ -> incr keys);
       (match Proxy_usb.wait_block proxy ~timeout_ns:5_000_000_000 with
        | Some cap -> Alcotest.(check int) "capacity over UHCI" 32 cap
        | None -> Alcotest.fail "no storage registered via UHCI");
       let block = Bytes.init 512 (fun i -> Char.chr ((i * 3) land 0xff)) in
       ok_or_fail "write" (Proxy_usb.write_blocks proxy ~lba:7 block);
       let back = ok_or_fail "read" (Proxy_usb.read_blocks proxy ~lba:7 ~count:1) in
       Alcotest.(check bytes) "round trip over the frame list" block back;
       Alcotest.(check bytes) "backing store" block (Usb_device.storage_peek disk ~lba:7);
       Usb_device.keyboard_press kbd ~key:0x10;
       let deadline = Engine.now k.Kernel.eng + 2_000_000_000 in
       while !keys < 1 && Engine.now k.Kernel.eng < deadline do
         ignore (Fiber.sleep k.Kernel.eng 20_000_000 : Fiber.wake)
       done;
       Alcotest.(check int) "key delivered over UHCI" 1 !keys)

let suite =
  [ Alcotest.test_case "ne2k (PIO) under SUD" `Quick test_ne2k_sud;
    Alcotest.test_case "wifi under SUD" `Quick test_wifi_sud;
    Alcotest.test_case "audio under SUD" `Quick test_audio_sud;
    Alcotest.test_case "usb storage + keyboard under SUD" `Quick test_usb_storage_sud;
    Alcotest.test_case "uhci: storage + keyboard under SUD" `Quick test_uhci_storage_sud ]
