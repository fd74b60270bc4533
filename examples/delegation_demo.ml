(* Device delegation (paper §6): a bus-manager scan starts one untrusted
   driver process per discovered device, each under a distinct UID.

     dune exec examples/delegation_demo.exe *)

let () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let air = Net_medium.create eng () in
  (* A small machine: two ethernet NICs, a wireless card, a sound card. *)
  let nic1 = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "02:00:00:00:00:01") ~medium () in
  let nic2 = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "02:00:00:00:00:02") ~medium () in
  let wifi =
    Wifi_dev.create eng ~mac:(Skbuff.Mac.of_string "02:24:d7:00:00:03") ~medium:air
      ~bss_list:[ { Wifi_dev.bssid = 1; ssid = "lab"; signal_dbm = -50 } ] ()
  in
  let hda = Hda_dev.create eng () in
  ignore (Kernel.attach_pci k (E1000_dev.device nic1) : Bus.bdf);
  ignore (Kernel.attach_pci k (E1000_dev.device nic2) : Bus.bdf);
  ignore (Kernel.attach_pci k (Wifi_dev.device wifi) : Bus.bdf);
  ignore (Kernel.attach_pci k (Hda_dev.device hda) : Bus.bdf);
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"bus-manager" (fun () ->
         let sp = Safe_pci.init k in
         let rows =
           Delegation.scan_and_start k sp
             ~registry:
               [ Delegation.Net E1000.driver;
                 Delegation.Wifi Iwl.driver;
                 Delegation.Audio Hda.driver ]
             ()
         in
         Printf.printf "bus scan started %d drivers:\n" (List.length rows);
         List.iter
           (fun (bdf, name, result) ->
              let pid_uid =
                match result with
                | Ok (Delegation.Started_net s) ->
                  let p = Driver_host.proc s in
                  Printf.sprintf "pid %d uid %d" (Process.pid p) (Process.uid p)
                | Ok (Delegation.Started_wifi s) ->
                  let p = Driver_host.proc s in
                  Printf.sprintf "pid %d uid %d" (Process.pid p) (Process.uid p)
                | Ok (Delegation.Started_audio s) ->
                  let p = Driver_host.proc s in
                  Printf.sprintf "pid %d uid %d" (Process.pid p) (Process.uid p)
                | Error e -> "FAILED: " ^ e
              in
              Printf.printf "  %s  %-12s %s\n" (Bus.string_of_bdf bdf) name pid_uid)
           rows;
         Printf.printf "netdevs now registered: %s\n"
           (String.concat ", " (List.map Netdev.name (Netstack.netdevs k.Kernel.net))))
     : Fiber.t);
  Engine.run ~max_time:2_000_000_000 eng
