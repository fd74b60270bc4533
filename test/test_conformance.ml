(* The unified proxy lifecycle contract, checked against every device
   class through Proxy_class.instance — the same capability the
   supervisor holds.  One generic exerciser asserts what the interface
   promises (healthy instances are not hung and answer the heartbeat;
   quiesce and resume are idempotent and leave the instance healthy);
   per-class tests obtain a live instance the way the driver host hands
   one out and prove the datapath still serves after a full
   quiesce/resume cycle.  A QCheck property then drives the blk class
   through random write/fsync/crash schedules and holds it to the
   durability oracle: no acknowledged-and-synced write is ever lost. *)

open Helpers

let heartbeat_ok what inst =
  match Proxy_class.heartbeat inst with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: heartbeat on healthy instance failed: %s" what e

(* The class-independent contract.  Quiesce/resume must be callable
   repeatedly in any healthy state (the supervisor retries recovery
   steps), and a full cycle must leave the control path answering. *)
let exercise what (inst : Proxy_class.instance) =
  Alcotest.(check bool) (what ^ ": class name nonempty") true
    (String.length (Proxy_class.class_name inst) > 0);
  Alcotest.(check bool) (what ^ ": healthy instance not hung") false
    (Proxy_class.hung inst);
  heartbeat_ok what inst;
  Proxy_class.quiesce inst;
  Proxy_class.quiesce inst;
  Proxy_class.resume inst;
  Proxy_class.resume inst;
  Alcotest.(check bool) (what ^ ": not hung after quiesce/resume") false
    (Proxy_class.hung inst);
  heartbeat_ok (what ^ " (after cycle)") inst;
  (* Generation handoff is part of the same contract: capturing the
     class state is read-only (calling it twice must not perturb the
     instance), every class has state to hand off, and adopting a
     captured state back after a quiesce must leave the instance
     healthy — the per-class datapath probes that follow [exercise]
     then prove it still serves. *)
  let h1 = Proxy_class.handoff inst in
  let h2 = Proxy_class.handoff inst in
  Alcotest.(check bool) (what ^ ": handoff produces class state") false
    (h1 == Proxy_class.No_state || h2 == Proxy_class.No_state);
  Alcotest.(check bool) (what ^ ": not hung after double handoff") false
    (Proxy_class.hung inst);
  heartbeat_ok (what ^ " (after handoff)") inst;
  Proxy_class.quiesce inst;
  Proxy_class.adopt inst h2;
  Proxy_class.resume inst;
  Alcotest.(check bool) (what ^ ": not hung after adopt") false
    (Proxy_class.hung inst);
  heartbeat_ok (what ^ " (after adopt)") inst

let test_net () =
  run_in_kernel setup_duo (fun k d ->
      let sp = Safe_pci.init k in
      let s =
        ok_or_fail "start e1000"
          (Driver_host.launch k sp (Driver_host.net ()) ~bdf:d.bdf_a ~name:"eth0" E1000.driver)
      in
      let inst = Driver_host.class_of s in
      Alcotest.(check string) "class" "net" (Proxy_class.class_name inst);
      exercise "net" inst;
      (* The cycle must not have torn down the datapath: a frame still
         crosses the wire. *)
      let dev = Driver_host.netdev s in
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net dev);
      let dev_b = up_native ~name:"eth1" k d.bdf_b in
      let sock_a = Netstack.udp_bind k.Kernel.net dev ~port:68 in
      let sock_b = Netstack.udp_bind k.Kernel.net dev_b ~port:67 in
      (match
         Netstack.udp_sendto k.Kernel.net sock_a ~dst:(Netdev.mac dev_b) ~dst_port:67
           (Bytes.of_string "alive")
       with
       | `Sent -> ()
       | `Dropped -> Alcotest.fail "tx dropped after quiesce/resume");
      match Netstack.udp_recv k.Kernel.net sock_b with
      | Some (d, _) ->
        Alcotest.(check string) "frame after cycle" "alive" (Bytes.to_string d)
      | None -> Alcotest.fail "nothing received after quiesce/resume")

let test_wifi () =
  run_in_kernel
    (fun k ->
       let air = Net_medium.create k.Kernel.eng () in
       let wifi =
         Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air
           ~bss_list:[ { Wifi_dev.bssid = 0x1A; ssid = "csail"; signal_dbm = -40 } ] ()
       in
       Kernel.attach_pci k (Wifi_dev.device wifi))
    (fun k bdf ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start iwl" (Driver_host.launch k sp Driver_host.wifi ~bdf Iwl.driver) in
       let inst = Proxy_wifi.instance (Driver_host.proxy s) in
       Alcotest.(check string) "class" "wifi" (Proxy_class.class_name inst);
       exercise "wifi" inst;
       (* Control path still serves: the mirrored rate table answers. *)
       Alcotest.(check (list int)) "mirror alive after cycle"
         (Array.to_list Wifi_dev.supported_rates)
         (Proxy_wifi.bitrates (Driver_host.proxy s)))

let test_audio () =
  run_in_kernel
    (fun k ->
       let hda = Hda_dev.create k.Kernel.eng () in
       Kernel.attach_pci k (Hda_dev.device hda))
    (fun k bdf ->
       let sp = Safe_pci.init k in
       let s = ok_or_fail "start hda" (Driver_host.launch k sp Driver_host.audio ~bdf Hda.driver) in
       let inst = Proxy_audio.instance (Driver_host.proxy s) in
       Alcotest.(check string) "class" "audio" (Proxy_class.class_name inst);
       exercise "audio" inst;
       let proxy = Driver_host.proxy s in
       ok_or_fail "set volume after cycle" (Proxy_audio.set_volume proxy 17);
       Alcotest.(check int) "volume round trip after cycle" 17
         (ok_or_fail "get volume" (Proxy_audio.get_volume proxy)))

let test_usb () =
  run_in_kernel
    (fun k ->
       let hci = Usb_hci_dev.create k.Kernel.eng ~ports:1 () in
       Usb_hci_dev.plug hci ~port:0 (Usb_device.storage ~blocks:16);
       Kernel.attach_pci k (Usb_hci_dev.device hci))
    (fun k bdf ->
       let sp = Safe_pci.init k in
       let s =
         ok_or_fail "start ehci"
           (Driver_host.launch k sp ~bdf
              (Driver_host.usb ~bind_storage:Ehci.bind_storage
                 ~bind_keyboard:Ehci.poll_keyboard)
              Ehci.driver)
       in
       let proxy = Driver_host.proxy s in
       (match Proxy_usb.wait_block proxy ~timeout_ns:2_000_000_000 with
        | Some _ -> ()
        | None -> Alcotest.fail "no storage registered");
       let inst = Proxy_usb.instance proxy in
       Alcotest.(check string) "class" "usb" (Proxy_class.class_name inst);
       exercise "usb" inst;
       let block = Bytes.init 512 (fun i -> Char.chr ((i * 11) land 0xff)) in
       ok_or_fail "write after cycle" (Proxy_usb.write_blocks proxy ~lba:3 block);
       let back = ok_or_fail "read after cycle" (Proxy_usb.read_blocks proxy ~lba:3 ~count:1) in
       Alcotest.(check bytes) "usb datapath after cycle" block back)

let setup_nvme (k : Kernel.t) =
  let nvme = Nvme_dev.create k.Kernel.eng () in
  let bdf = Kernel.attach_pci k (Nvme_dev.device nvme) in
  let sp = Safe_pci.init k in
  (nvme, bdf, sp)

let test_blk () =
  run_in_kernel setup_nvme (fun k (nvme, bdf, sp) ->
      let s = ok_or_fail "start_blk" (Driver_host.launch k sp (Driver_host.blk ()) ~bdf Nvme.driver) in
      let inst = Driver_host.class_of s in
      Alcotest.(check string) "class" "blk" (Proxy_class.class_name inst);
      exercise "blk" inst;
      (* Quiesce retains; resume replays: a FUA write issued while
         quiesced must become durable once resumed. *)
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      let data = Bytes.make Blkdev.page_size 'Q' in
      Proxy_class.quiesce inst;
      let done_ = ref None in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"writer"
           (fun () -> done_ := Some (Blkdev.write_fua bd ~lba:0 data ()))
         : Fiber.t);
      ignore (Fiber.sleep k.Kernel.eng 2_000_000 : Fiber.wake);
      Alcotest.(check bool) "write held while quiesced" true (!done_ = None);
      Proxy_class.resume inst;
      let deadline = Engine.now k.Kernel.eng + 2_000_000_000 in
      while !done_ = None && Engine.now k.Kernel.eng < deadline do
        ignore (Fiber.sleep k.Kernel.eng 100_000 : Fiber.wake)
      done;
      (match !done_ with
       | Some (Ok ()) -> ()
       | Some (Error e) -> Alcotest.failf "replayed write failed: %s" e
       | None -> Alcotest.fail "write never completed after resume");
      for sec = 0 to Blkdev.page_sectors - 1 do
        match Nvme_dev.media_sector nvme ~lba:sec with
        | Some b ->
          Alcotest.(check string)
            (Printf.sprintf "sector %d durable" sec)
            (String.make Blkdev.sector_size 'Q') (Bytes.to_string b)
        | None -> Alcotest.failf "sector %d of the replayed write never persisted" sec
      done;
      Driver_host.kill s)

(* Randomized crash-consistency: drive the supervised blk stack through
   an arbitrary schedule of page writes, fsyncs and driver crashes; at
   every point the oracle from the soak harness must hold — a write
   that was acknowledged before a successful fsync is on media
   afterwards, whatever faults fired in between. *)

type bop = Bwrite of int * char | Bfsync | Bcrash

let bop_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun p c -> Bwrite (p, Char.chr (0x41 + c))) (int_bound 7) (int_bound 25));
        (2, return Bfsync);
        (1, return Bcrash) ])

let ops_gen = QCheck.Gen.(list_size (int_range 1 12) bop_gen)

let pp_bop = function
  | Bwrite (p, c) -> Printf.sprintf "write %d '%c'" p c
  | Bfsync -> "fsync"
  | Bcrash -> "crash"

let blk_policy =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000;
    max_restarts = 100 }

let run_schedule ops =
  run_in_kernel ~max_ms:60_000 setup_nvme (fun k (nvme, bdf, sp) ->
      let sv =
        ok_or_fail "supervise nvme"
          (Supervisor.start_blk k sp ~policy:blk_policy ~bdf (fun ~attempt:_ ->
               Nvme.driver))
      in
      let eng = k.Kernel.eng in
      let rec blkdev () =
        match Supervisor.blkdev sv with
        | Some bd when Blkdev.capacity bd > 0 -> bd
        | _ ->
          ignore (Fiber.sleep eng 100_000 : Fiber.wake);
          blkdev ()
      in
      let bd = blkdev () in
      let synced = Array.make 8 None in  (* oracle: page -> last fsynced char *)
      let acked = Array.make 8 None in  (* acked but not yet fsynced *)
      let failures = ref [] in
      List.iter
        (fun op ->
           match op with
           | Bwrite (p, c) ->
             (match
                Blkdev.write bd ~lba:(p * Blkdev.page_sectors)
                  (Bytes.make Blkdev.page_size c) ()
              with
              | Ok () -> acked.(p) <- Some c
              | Error e -> failures := Printf.sprintf "write %d: %s" p e :: !failures)
           | Bfsync ->
             (match Blkdev.fsync bd () with
              | Ok () ->
                Array.iteri
                  (fun p v -> match v with Some c -> synced.(p) <- Some c | None -> ())
                  acked
              | Error e -> failures := Printf.sprintf "fsync: %s" e :: !failures)
           | Bcrash ->
             ignore (Fault_inject.blk_inject ~eng ~sv ~nvme Fault_inject.Bcrash : bool);
             let deadline = Engine.now eng + 5_000_000_000 in
             while Supervisor.state sv <> Supervisor.Running
                   && Engine.now eng < deadline do
               ignore (Fiber.sleep eng 500_000 : Fiber.wake)
             done)
        ops;
      (* Settle with one final fsync, then hold media to the oracle. *)
      (match Blkdev.fsync bd () with
       | Ok () ->
         Array.iteri
           (fun p v -> match v with Some c -> synced.(p) <- Some c | None -> ())
           acked
       | Error e -> failures := Printf.sprintf "final fsync: %s" e :: !failures);
      Array.iteri
        (fun p expect ->
           match expect with
           | None -> ()
           | Some c ->
             for s = 0 to Blkdev.page_sectors - 1 do
               let lba = (p * Blkdev.page_sectors) + s in
               match Nvme_dev.media_sector nvme ~lba with
               | Some b when Bytes.to_string b = String.make Blkdev.sector_size c -> ()
               | Some _ ->
                 failures := Printf.sprintf "page %d sector %d: stale media" p lba :: !failures
               | None ->
                 failures := Printf.sprintf "page %d sector %d: synced write lost" p lba :: !failures
             done)
        synced;
      Supervisor.stop sv;
      !failures)

let prop_no_lost_synced_write =
  QCheck.Test.make ~name:"no fsynced write is lost under random crash schedules"
    ~count:10
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_bop ops)) ops_gen)
    (fun ops ->
       match run_schedule ops with
       | [] -> true
       | fs -> QCheck.Test.fail_reportf "oracle violated:@.%s" (String.concat "\n" fs))

let suite =
  [ Alcotest.test_case "net proxy honours the lifecycle contract" `Quick test_net;
    Alcotest.test_case "wifi proxy honours the lifecycle contract" `Quick test_wifi;
    Alcotest.test_case "audio proxy honours the lifecycle contract" `Quick test_audio;
    Alcotest.test_case "usb proxy honours the lifecycle contract" `Quick test_usb;
    Alcotest.test_case "blk proxy honours the lifecycle contract" `Quick test_blk;
    QCheck_alcotest.to_alcotest prop_no_lost_synced_write ]
