(* TX frames handed to the driver must live in DMA-able memory; a small
   arena of fixed slots stands in for dma_map_single on the skb. *)
let arena_slots = 256
let arena_slot_size = 2048

type arena = {
  base : int;
  free : int Queue.t;
}

let make_arena mem =
  let pages = arena_slots * arena_slot_size / Bus.page_size in
  let base = Phys_mem.alloc_pages mem ~pages in
  let free = Queue.create () in
  for i = 0 to arena_slots - 1 do Queue.push i free done;
  { base; free }

let attach ?name (k : Kernel.t) (drv : Driver_api.net_driver) bdf =
  let devname = Option.value ~default:drv.Driver_api.nd_name name in
  let label = "kernel:" ^ drv.Driver_api.nd_name in
  let cell = Cpu.cell k.Kernel.cpu label in
  let m = Cpu.cost_model k.Kernel.cpu in
  match Kenv_native.pcidev k bdf ~label with
  | Error e -> Error e
  | Ok pdev ->
    if not (List.mem (pdev.Driver_api.pd_vendor, pdev.Driver_api.pd_device) drv.Driver_api.nd_ids)
    then Error "device does not match driver ID table"
    else begin
      let env = Kenv_native.env k ~label in
      let arena = make_arena k.Kernel.mem in
      let dev_ref : Netdev.t option ref = ref None in
      let callbacks =
        { Driver_api.nc_rx =
            (fun ~queue:_ ~addr ~len ->
               (* Trusted driver: addr is a physical address of its RX
                  buffer; the skb wraps that data with no extra copy.
                  RX queue fan-out happens in the stack's RPS, so the
                  queue index needs no plumbing here. *)
               Cpu.charge cell m.Cost_model.skb_alloc_ns;
               match !dev_ref with
               | None -> ()
               | Some dev ->
                 let data = Phys_mem.read k.Kernel.mem ~addr ~len in
                 Netdev.netif_rx dev (Skbuff.of_bytes data));
          nc_tx_free =
            (fun ~queue:_ ~token ->
               if token >= 0 && token < arena_slots then Queue.push token arena.free);
          nc_tx_done =
            (fun ~queue ->
               match !dev_ref with
               | Some dev when queue >= 0 && queue < Netdev.tx_queues dev ->
                 Netdev.netif_wake_subqueue dev ~queue
               | Some dev -> Netdev.netif_tx_wake_all_queues dev
               | None -> ());
          nc_carrier =
            (fun up ->
               match !dev_ref with
               | Some dev -> if up then Netdev.netif_carrier_on dev else Netdev.netif_carrier_off dev
               | None -> ()) }
      in
      match drv.Driver_api.nd_probe env pdev callbacks with
      | Error e -> Error e
      | Ok inst ->
        let ops =
          { Netdev.ndo_open = (fun () -> inst.Driver_api.ni_open ());
            ndo_stop = (fun () -> inst.Driver_api.ni_stop ());
            ndo_start_xmit =
              (fun ~queue skb ->
                 let len = Skbuff.length skb in
                 if len > arena_slot_size then Netdev.Xmit_busy
                 else begin
                   match Queue.take_opt arena.free with
                   | None -> Netdev.Xmit_busy
                   | Some slot ->
                     let addr = arena.base + (slot * arena_slot_size) in
                     Cpu.charge cell (Cost_model.copy_cost m ~bytes:len);
                     Phys_mem.write k.Kernel.mem ~addr skb.Skbuff.data;
                     (match
                        inst.Driver_api.ni_xmit ~queue
                          { Driver_api.txb_addr = addr;
                            txb_len = len;
                            txb_token = slot;
                            txb_read =
                              (fun () -> Phys_mem.read k.Kernel.mem ~addr ~len) }
                      with
                      | `Ok -> Netdev.Xmit_ok
                      | `Busy ->
                        Queue.push slot arena.free;
                        Netdev.Xmit_busy)
                 end);
            ndo_do_ioctl = (fun ~cmd ~arg -> inst.Driver_api.ni_ioctl ~cmd ~arg) }
        in
        let dev =
          Netdev.create ~name:devname ~mac:inst.Driver_api.ni_mac ~ops
            ~tx_queues:(max 1 inst.Driver_api.ni_tx_queues) ()
        in
        dev_ref := Some dev;
        Netstack.register_netdev k.Kernel.net dev;
        Ok dev
    end
