module R = E1000_dev.Regs

type toolkit = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.net_callbacks;
  mmio : Driver_api.mmio;
  ring : Driver_api.dma_region;
  buf : Driver_api.dma_region;
}

let reg_write t off v = t.mmio.Driver_api.mmio_write ~off ~size:4 v

let write_desc t slot ~addr ~len ~cmd =
  let off = slot * R.desc_size in
  Driver_api.dma_set64 t.ring ~off (Int64.of_int addr);
  let meta = Bytes.make 8 '\000' in
  Bytes.set_uint16_le meta 0 len;
  Bytes.set meta 3 (Char.chr cmd);
  t.ring.Driver_api.dma_write ~off:(off + 8) meta

let dma_read_via_tx t ~target ~len =
  write_desc t 0 ~addr:target ~len ~cmd:(R.txd_cmd_eop lor R.txd_cmd_rs);
  reg_write t R.tdbal (t.ring.Driver_api.dma_addr land 0xFFFFFFFF);
  reg_write t R.tdbah (t.ring.Driver_api.dma_addr lsr 32);
  reg_write t R.tdlen (16 * R.desc_size);
  reg_write t R.tdh 0;
  reg_write t R.tctl R.tctl_en;
  reg_write t R.tdt 1

let dma_write_via_rx t ~target =
  (* Aim every descriptor at the target so a whole burst of incoming
     frames keeps hammering it. *)
  for slot = 0 to 14 do
    write_desc t slot ~addr:target ~len:0 ~cmd:0
  done;
  reg_write t R.rdbal (t.ring.Driver_api.dma_addr land 0xFFFFFFFF);
  reg_write t R.rdbah (t.ring.Driver_api.dma_addr lsr 32);
  reg_write t R.rdlen (16 * R.desc_size);
  reg_write t R.rdh 0;
  reg_write t R.rdt 15;
  reg_write t R.rctl R.rctl_en

let driver ?(name = "mal-e1000") ~on_open () =
  let probe env pdev cb =
    match pdev.Driver_api.pd_enable () with
    | Error e -> Error e
    | Ok () ->
      (match pdev.Driver_api.pd_map_bar 0 with
       | Error e -> Error e
       | Ok mmio ->
         (match
            ( pdev.Driver_api.pd_alloc_dma ~bytes:4096 (),
              pdev.Driver_api.pd_alloc_dma ~bytes:4096 () )
          with
          | Ok ring, Ok buf ->
            let t = { env; pdev; cb; mmio; ring; buf } in
            Ok
              { Driver_api.ni_mac = Bytes.of_string "\x02\xBA\xD0\x00\x00\x01";
                ni_tx_queues = 1;
                ni_open = (fun () -> on_open t);
                ni_stop = (fun () -> ());
                ni_xmit = (fun ~queue:_ _ -> `Ok);
                ni_ioctl = (fun ~cmd:_ ~arg:_ -> Error "nope") }
          | Error e, _ | _, Error e -> Error e))
  in
  { Driver_api.nd_name = name; nd_ids = [ (0x8086, 0x10D3) ]; nd_probe = probe }
