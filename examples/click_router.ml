(* The paper's §6 "Applications" point: programs like the Click router want
   direct access to packets as the NIC receives them, and today run as
   trusted kernel modules.  Under SUD the same program runs as an untrusted
   process with direct (confined) hardware access.

   This example is a user-level two-port packet forwarder: one process, its
   own UID, two e1000 NICs opened through SUD's device files, poll-mode RX
   and TX rings programmed directly — the kernel's network stack never sees
   a packet, yet the process can touch nothing but its two NICs.

     dune exec examples/click_router.exe *)

module R = E1000_dev.Regs

(* A tiny poll-mode port driver over a Safe_pci grant — the "Click element". *)
type port = {
  mmio : Driver_api.mmio;
  tx_ring : Driver_api.dma_region;
  rx_ring : Driver_api.dma_region;
  bufs : Driver_api.dma_region;
  mutable rx_next : int;
  mutable tx_tail : int;
}

let nslots = 64
let bufsz = 2048

let _r32 p off = p.mmio.Driver_api.mmio_read ~off ~size:4
let w32 p off v = p.mmio.Driver_api.mmio_write ~off ~size:4 v

let open_port grant =
  let get = function Ok v -> v | Error e -> failwith e in
  get (Safe_pci.enable_device grant);
  let mmio = get (Safe_pci.map_mmio grant ~bar:0) in
  let tx_ring = get (Safe_pci.alloc_dma grant ~bytes:(nslots * 16) ()) in
  let rx_ring = get (Safe_pci.alloc_dma grant ~bytes:(nslots * 16) ()) in
  let bufs = get (Safe_pci.alloc_dma grant ~bytes:(2 * nslots * bufsz) ()) in
  let p = { mmio; tx_ring; rx_ring; bufs; rx_next = 0; tx_tail = 0 } in
  (* RX descriptors point into the first half of the buffer region. *)
  for i = 0 to nslots - 1 do
    Driver_api.dma_set64 p.rx_ring ~off:(i * 16)
      (Int64.of_int (bufs.Driver_api.dma_addr + (i * bufsz)));
    p.rx_ring.Driver_api.dma_write ~off:((i * 16) + 8) (Bytes.make 8 '\000')
  done;
  w32 p R.rdbal (rx_ring.Driver_api.dma_addr land 0xFFFFFFFF);
  w32 p R.rdbah (rx_ring.Driver_api.dma_addr lsr 32);
  w32 p R.rdlen (nslots * 16);
  w32 p R.rdh 0;
  w32 p R.rdt (nslots - 1);
  w32 p R.tdbal (tx_ring.Driver_api.dma_addr land 0xFFFFFFFF);
  w32 p R.tdbah (tx_ring.Driver_api.dma_addr lsr 32);
  w32 p R.tdlen (nslots * 16);
  w32 p R.tdh 0;
  w32 p R.tdt 0;
  (* Poll mode, as Click runs: no interrupts at all. *)
  w32 p R.imc 0xFFFFFFFF;
  w32 p R.rctl R.rctl_en;
  w32 p R.tctl R.tctl_en;
  p

(* Forward every frame pending on [src] out of [dst]; returns frames moved. *)
let forward src dst =
  let moved = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let off = src.rx_next * 16 in
    let status = Bytes.get (src.rx_ring.Driver_api.dma_read ~off:(off + 12) ~len:1) 0 in
    if Char.code status land R.rxd_sta_dd <> 0 then begin
      let len = Bytes.get_uint16_le (src.rx_ring.Driver_api.dma_read ~off:(off + 8) ~len:2) 0 in
      let frame = src.bufs.Driver_api.dma_read ~off:(src.rx_next * bufsz) ~len in
      (* TX out of the destination port's second buffer half (zero kernel
         involvement; one user-space copy between the two devices). *)
      let slot = dst.tx_tail in
      let txbuf_off = (nslots + slot) * bufsz in
      dst.bufs.Driver_api.dma_write ~off:txbuf_off frame;
      let doff = slot * 16 in
      Driver_api.dma_set64 dst.tx_ring ~off:doff
        (Int64.of_int (dst.bufs.Driver_api.dma_addr + txbuf_off));
      let meta = Bytes.make 8 '\000' in
      Bytes.set_uint16_le meta 0 len;
      Bytes.set meta 3 (Char.chr (R.txd_cmd_eop lor R.txd_cmd_rs));
      dst.tx_ring.Driver_api.dma_write ~off:(doff + 8) meta;
      dst.tx_tail <- (slot + 1) mod nslots;
      w32 dst R.tdt dst.tx_tail;
      (* Recycle the RX descriptor. *)
      src.rx_ring.Driver_api.dma_write ~off:(off + 8) (Bytes.make 8 '\000');
      w32 src R.rdt src.rx_next;
      src.rx_next <- (src.rx_next + 1) mod nslots;
      incr moved
    end
    else continue_ := false
  done;
  !moved

let () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  (* Two separate links, one NIC on each; a traffic source on link A and a
     sink on link B. *)
  let link_a = Net_medium.create eng () and link_b = Net_medium.create eng () in
  let nic_a = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "02:00:00:00:00:0a") ~medium:link_a () in
  let nic_b = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "02:00:00:00:00:0b") ~medium:link_b () in
  let bdf_a = Kernel.attach_pci k (E1000_dev.device nic_a) in
  let bdf_b = Kernel.attach_pci k (E1000_dev.device nic_b) in
  let source = Net_medium.attach link_a ~rx:ignore in
  let forwarded = ref 0 in
  ignore
    (Net_medium.attach link_b ~rx:(fun f ->
         incr forwarded;
         if !forwarded <= 3 then
           Printf.printf "[sink] frame %d (%d bytes): %s...\n" !forwarded (Bytes.length f)
             (String.escaped (Bytes.sub_string f 14 (min 16 (Bytes.length f - 14)))))
     : Net_medium.port);
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"admin" (fun () ->
         let sp = Safe_pci.init k in
         Safe_pci.register_device sp bdf_a;
         Safe_pci.register_device sp bdf_b;
         Safe_pci.set_owner sp bdf_a ~uid:3000;
         Safe_pci.set_owner sp bdf_b ~uid:3000;
         (* The router: ONE untrusted process owning both NICs, each grant
            in its own capability table. *)
         let router = Process.spawn k.Kernel.procs ~name:"click-router" ~uid:3000 in
         let open_nic bdf =
           Safe_pci.open_device sp ~caps:(Quota.table None router) bdf ~proc:router
         in
         let ga =
           match open_nic bdf_a with
           | Ok g -> g
           | Error e -> failwith e
         in
         let gb =
           match open_nic bdf_b with
           | Ok g -> g
           | Error e -> failwith e
         in
         ignore
           (Process.spawn_fiber router ~name:"fastpath" (fun () ->
                let pa = open_port ga and pb = open_port gb in
                print_endline "[router] ports up, polling (user-space fast path)";
                let rec poll () =
                  let n = forward pa pb + forward pb pa in
                  if n = 0 then ignore (Fiber.sleep eng 10_000 : Fiber.wake)
                  else Cpu.consume k.Kernel.cpu ~label:"proc:click-router" (n * 500);
                  poll ()
                in
                poll ())
            : Fiber.t);
         (* Traffic: 20 frames into link A addressed to anyone. *)
         ignore (Fiber.sleep eng 2_000_000 : Fiber.wake);
         for i = 1 to 20 do
           let f = Bytes.make 200 '\000' in
           Bytes.fill f 0 6 '\xff';
           Bytes.blit_string (Printf.sprintf "payload-%02d" i) 0 f 14 10;
           Net_medium.send link_a source f
         done;
         ignore (Fiber.sleep eng 50_000_000 : Fiber.wake);
         Printf.printf "[router] forwarded %d/20 frames A->B without the kernel stack\n"
           !forwarded;
         (* And confinement still holds: the router cannot DMA elsewhere. *)
         (match Safe_pci.read_driver_mem ga ~iova:0x100000 ~len:16 with
          | Error e -> Printf.printf "[sud] out-of-region access denied: %s\n" e
          | Ok _ -> print_endline "[sud] BREACH");
         Printf.printf "[sud] IOMMU mappings for port A: %d region(s), nothing else\n"
           (List.length (Safe_pci.iommu_mappings ga)))
     : Fiber.t);
  Engine.run ~max_time:2_000_000_000 eng
