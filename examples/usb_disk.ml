(* USB mass storage (the paper's §4 "block device proxy driver" extension)
   plus a USB keyboard, both behind one EHCI controller whose driver runs
   as an untrusted process.

     dune exec examples/usb_disk.exe *)

let () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let hci = Usb_hci_dev.create eng ~ports:2 () in
  let disk = Usb_device.storage ~blocks:128 in
  let kbd = Usb_device.keyboard () in
  Usb_hci_dev.plug hci ~port:0 disk;
  Usb_hci_dev.plug hci ~port:1 kbd;
  let bdf = Kernel.attach_pci k (Usb_hci_dev.device hci) in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"main" (fun () ->
         let sp = Safe_pci.init k in
         let s =
           match
             Driver_host.launch k sp ~bdf
               (Driver_host.usb ~bind_storage:Ehci.bind_storage
                  ~bind_keyboard:Ehci.poll_keyboard)
               Ehci.driver
           with
           | Ok s -> s
           | Error e -> failwith e
         in
         let proxy = Driver_host.proxy s in
         Proxy_usb.set_key_handler proxy (fun key ->
             Printf.printf "[input] key event 0x%02x\n" key);
         (match Proxy_usb.wait_block proxy ~timeout_ns:2_000_000_000 with
          | Some cap -> Printf.printf "usb-storage: %d blocks (%d KiB)\n" cap (cap / 2)
          | None -> failwith "no disk found");
         (* A tiny filesystem-ish workload: write a tagged block chain. *)
         print_endline "writing a 16-block chain...";
         for lba = 0 to 15 do
           let block = Bytes.make 512 '\000' in
           Bytes.blit_string (Printf.sprintf "block-%02d" lba) 0 block 0 8;
           Bytes.set_int32_le block 508 (Int32.of_int (lba + 1));
           match Proxy_usb.write_blocks proxy ~lba block with
           | Ok () -> ()
           | Error e -> failwith e
         done;
         print_endline "reading it back following the chain...";
         let rec follow lba n =
           if n < 16 then begin
             match Proxy_usb.read_blocks proxy ~lba ~count:1 with
             | Error e -> failwith e
             | Ok b ->
               Printf.printf "  lba %2d: %s\n" lba (Bytes.sub_string b 0 8);
               let next = Int32.to_int (Bytes.get_int32_le b 508) in
               if next < 16 then follow next (n + 1)
           end
         in
         follow 0 0;
         (* Keystrokes while the disk churns. *)
         Usb_device.keyboard_press kbd ~key:0x0b;   (* 'h' *)
         Usb_device.keyboard_press kbd ~key:0x0c;   (* 'i' *)
         ignore (Fiber.sleep eng 200_000_000 : Fiber.wake);
         Printf.printf "done (%d key events delivered)\n" (Proxy_usb.keys_received proxy))
     : Fiber.t);
  Engine.run ~max_time:5_000_000_000 eng
