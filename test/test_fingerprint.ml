(* The fingerprint oracle.  Under a fixed scheduler a run is
   bit-reproducible, so a refactor is behaviour-preserving exactly when
   every entry below keeps its pinned [Engine.trace_hash] and step count.
   The entries cover every driver bring-up path: each registered
   scenario, the warm-standby blk harness (prefork + activation), a warm
   net failover, and a short launch/kill of each device class.  They
   also cover every fault-injection harness the scenarios do not run:
   the single-fault recovery measures of each lethal class, cold and
   warm, and both quarantine campaigns.  All of these run FIFO; the two
   mini soaks also run under a seeded random picker, which pins the
   engine's picker path (ready-set gathering and the picks it offers).

   The metrics hash is left out: the metrics registry is shared by the
   whole process, so it depends on which tests ran before. *)

open Helpers

let expected_file = "fingerprints.txt"
let root = 0xF1F0_0001L

let settle k ms = ignore (Fiber.sleep k.Kernel.eng (ms * 1_000_000) : Fiber.wake)
let fingerprint eng = (Engine.trace_hash eng, Engine.steps eng)

let scenario (sc : Scenario.t) =
  ( "scenario/" ^ sc.Scenario.sc_name,
    fun () ->
      let oc = sc.sc_run ~sched:Sched.Fifo ~seed:(Rng.derive ~root sc.sc_name) in
      (oc.Scenario.oc_trace_hash, oc.oc_steps) )

(* The picker path: a fixed policy seed, so every pick is pinned too. *)
let picked name =
  let sc = Option.get (Scenario.find name) in
  ( "random/" ^ name,
    fun () ->
      let sched =
        Sched.Random { seed = Rng.derive ~root ("policy:" ^ name); p_preempt = 20 }
      in
      let oc = sc.Scenario.sc_run ~sched ~seed:(Rng.derive ~root name) in
      (oc.Scenario.oc_trace_hash, oc.oc_steps) )

let upgrade_soak tag =
  ( "upgrade-soak/" ^ tag,
    fun () ->
      let r = Fault_inject.upgrade_soak ~seed:(Rng.derive ~root tag) ~interleavings:4 () in
      let ss = r.Fault_inject.usr_sched in
      (ss.Fault_inject.ss_trace_hash, ss.ss_steps) )

(* A warm standby parked for a supervised NIC, then one operator
   failover: the dying generation is swapped for the activated one. *)
let warm_net_failover () =
  let w = Fault_inject.make_world () in
  Kernel.run w.Fault_inject.k (fun () ->
      let sv =
        ok_or_fail "supervise"
          (Supervisor.start w.k w.sp ~policy:(Fault_inject.warm_policy ~max_restarts:10)
             ~bdf:w.bdf Fault_inject.honest_factory)
      in
      ok_or_fail "up" (Netstack.ifconfig_up w.k.Kernel.net (Supervisor.netdev sv));
      if not (Fault_inject.wait_standby_ready ~eng:w.eng sv ~budget_ms:2_000) then
        Alcotest.fail "standby never became ready";
      ok_or_fail "failover" (Supervisor.failover sv);
      Alcotest.(check int) "warm swap" 1 (Supervisor.warm_swaps sv);
      settle w.k 5);
  fingerprint w.Fault_inject.eng

let recovery tag measure fault =
  ( tag ^ "/" ^ fault,
    fun () ->
      let s = measure () in
      (s.Fault_inject.rs_trace_hash, s.rs_steps) )

let net_recovery f =
  recovery "recovery" (fun () -> Fault_inject.measure_recovery f) (Fault_inject.fault_name f)

let blk_recovery f =
  recovery "recovery"
    (fun () -> Fault_inject.measure_blk_recovery f)
    ("blk_" ^ Fault_inject.blk_fault_name f)

let warm_blk_recovery f =
  recovery "warm-recovery"
    (fun () -> Fault_inject.measure_warm_blk_recovery f)
    ("blk_" ^ Fault_inject.blk_fault_name f)

let crash_loop () =
  let q = Fault_inject.crash_loop () in
  (q.Fault_inject.qr_trace_hash, q.qr_steps)

let proto_quarantine () =
  let q = Proto_fuzz.quarantine_campaign () in
  (q.Proto_fuzz.pq_trace_hash, q.pq_steps)

(* Boot, attach the device, launch its driver, drive a little I/O
   through its proxy, then kill it so the exit hooks run too. *)
let launch_and_kill attach main =
  let k = Kernel.boot (Engine.create ()) in
  let bdf = attach k in
  Kernel.run k (fun () ->
      main k (Safe_pci.init k) bdf;
      settle k 1);
  fingerprint k.Kernel.eng

let net_launch () =
  launch_and_kill
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       Kernel.attach_pci k (E1000_dev.device (E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium ())))
    (fun k sp bdf ->
       let s = ok_or_fail "launch" (Driver_host.launch k sp ~bdf (Driver_host.net ()) E1000.driver) in
       let s = ok_or_fail "restart" (Driver_host.restart s) in
       let dev = Driver_host.netdev s in
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net dev);
       let sock = Netstack.udp_bind k.Kernel.net dev ~port:7000 in
       for _ = 1 to 8 do
         ignore
           (Netstack.udp_sendto k.Kernel.net sock ~dst:Skbuff.Mac.broadcast ~dst_port:7000
              (Bytes.make 64 'x')
            : [ `Sent | `Dropped ])
       done;
       settle k 1;
       Driver_host.kill s)

let blk_launch () =
  launch_and_kill
    (fun k -> Kernel.attach_pci k (Nvme_dev.device (Nvme_dev.create k.Kernel.eng ())))
    (fun k sp bdf ->
       let s = ok_or_fail "launch" (Driver_host.launch k sp ~bdf (Driver_host.blk ()) Nvme.driver) in
       let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
       ok_or_fail "write" (Blkdev.write bd ~lba:0 (Bytes.make Blkdev.page_size 'x') ());
       ok_or_fail "fsync" (Blkdev.fsync bd ());
       Driver_host.kill s)

let wifi_launch () =
  launch_and_kill
    (fun k ->
       let air = Net_medium.create k.Kernel.eng () in
       Kernel.attach_pci k
         (Wifi_dev.device
            (Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air
               ~bss_list:[ { Wifi_dev.bssid = 0x1A; ssid = "ap"; signal_dbm = -40 } ]
               ())))
    (fun k sp bdf ->
       let s = ok_or_fail "launch" (Driver_host.launch k sp ~bdf Driver_host.wifi Iwl.driver) in
       ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
       ignore (ok_or_fail "scan" (Proxy_wifi.scan (Driver_host.proxy s)) : int list);
       Driver_host.kill s)

let audio_launch () =
  launch_and_kill
    (fun k -> Kernel.attach_pci k (Hda_dev.device (Hda_dev.create k.Kernel.eng ())))
    (fun k sp bdf ->
       let s = ok_or_fail "launch" (Driver_host.launch k sp ~bdf Driver_host.audio Hda.driver) in
       ok_or_fail "volume" (Proxy_audio.set_volume (Driver_host.proxy s) 50);
       Driver_host.kill s)

let usb_launch () =
  launch_and_kill
    (fun k ->
       let hci = Usb_hci_dev.create k.Kernel.eng ~ports:1 () in
       Usb_hci_dev.plug hci ~port:0 (Usb_device.storage ~blocks:16);
       Kernel.attach_pci k (Usb_hci_dev.device hci))
    (fun k sp bdf ->
       let s =
         ok_or_fail "launch"
           (Driver_host.launch k sp ~bdf
              (Driver_host.usb ~bind_storage:Ehci.bind_storage ~bind_keyboard:Ehci.poll_keyboard)
              Ehci.driver)
       in
       let proxy = Driver_host.proxy s in
       (match Proxy_usb.wait_block proxy ~timeout_ns:2_000_000_000 with
        | Some _ -> ()
        | None -> Alcotest.fail "no storage registered");
       ignore (ok_or_fail "read" (Proxy_usb.read_blocks proxy ~lba:0 ~count:1) : bytes);
       Driver_host.kill s)

let entries =
  List.map scenario Scenario.all
  @ [ picked "mini-soak";
      picked "mini-blk-soak";
      upgrade_soak "a";
      upgrade_soak "b";
      ("supervisor/warm-net-failover", warm_net_failover);
      ("launch/net", net_launch);
      ("launch/blk", blk_launch);
      ("launch/wifi", wifi_launch);
      ("launch/audio", audio_launch);
      ("launch/usb", usb_launch) ]
  @ List.map net_recovery (List.filter Fault_inject.lethal Fault_inject.all_faults)
  @ List.map blk_recovery Fault_inject.all_blk_faults
  @ List.map warm_blk_recovery Fault_inject.all_blk_faults
  @ [ ("quarantine/crash-loop", crash_loop); ("quarantine/proto-fuzz", proto_quarantine) ]

let line name (hash, steps) = Printf.sprintf "%s 0x%016Lx %d" name hash steps

(* "<entry> <trace hash> <steps>" lines; '#' starts a comment. *)
let load () =
  In_channel.with_open_text expected_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | name :: _ when String.length name > 0 && name.[0] <> '#' -> Some (name, String.trim l)
      | _ -> None)

let test_fingerprints () =
  let pinned = load () in
  let got = List.map (fun (name, run) -> (name, line name (run ()))) entries in
  let wrong =
    List.filter (fun (name, l) -> List.assoc_opt name pinned <> Some l) got
  in
  let stale = List.filter (fun (name, _) -> not (List.mem_assoc name got)) pinned in
  if wrong <> [] || stale <> [] then
    Alcotest.failf
      "Fingerprints moved:\n%s\n%s\n\
       A refactor must keep every pinned value.  If this is an intended behaviour \
       change, put the new lines above into test/%s and record the change in \
       CHANGES.md."
      (String.concat "\n"
         (List.map
            (fun (name, l) ->
               Printf.sprintf "%s\n    pinned: %s" l
                 (Option.value ~default:"none" (List.assoc_opt name pinned)))
            wrong))
      (String.concat "\n" (List.map (fun (name, _) -> "stale entry: " ^ name) stale))
      expected_file

let suite = [ Alcotest.test_case "FIFO trace hashes and steps are pinned" `Quick test_fingerprints ]
