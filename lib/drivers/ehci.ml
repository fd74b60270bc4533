module R = Usb_hci_dev.Regs

type state = {
  env : Driver_api.env;
  mmio : Driver_api.mmio;
  sched : Driver_api.dma_region;    (* QH + qTD + transfer buffer arena *)
  xfer_lock : Sync.Mutex.t;         (* one transfer on the schedule at a time *)
  mutable next_addr : int;          (* next USB device address to assign *)
}

let r32 st off = st.mmio.Driver_api.mmio_read ~off ~size:4
let w32 st off v = st.mmio.Driver_api.mmio_write ~off ~size:4 v

(* Schedule arena layout: one QH at 0, one qTD at 64, buffer at 128. *)
let qh_off = 0
let qtd_off = 64
let buf_off = 128
let buf_max = 3968

let submit st ~devaddr ~ep ~ep_type ~dir ~data ~len =
  if len > buf_max then Error "transfer too large"
  else Sync.Mutex.with_lock st.xfer_lock @@ fun () -> begin
    let base = st.sched.Driver_api.dma_addr in
    (match data with
     | Some d -> st.sched.Driver_api.dma_write ~off:buf_off d
     | None -> ());
    (* qTD *)
    Driver_api.dma_set64 st.sched ~off:qtd_off 0L;
    let flags = Bytes.make 8 '\000' in
    Bytes.set flags 0 (Char.chr (R.qtd_active lor R.qtd_ioc));
    st.sched.Driver_api.dma_write ~off:(qtd_off + 8) flags;
    Driver_api.dma_set32 st.sched ~off:(qtd_off + 12) len;
    Driver_api.dma_set64 st.sched ~off:(qtd_off + 16) (Int64.of_int (base + buf_off));
    Driver_api.dma_set32 st.sched ~off:(qtd_off + 24) 0;
    (* QH *)
    Driver_api.dma_set64 st.sched ~off:qh_off 0L;
    let hdr = Bytes.make 8 '\000' in
    Bytes.set hdr 0 (Char.chr devaddr);
    Bytes.set hdr 1 (Char.chr ep);
    Bytes.set hdr 2 (Char.chr ep_type);
    Bytes.set hdr 3 (Char.chr dir);
    st.sched.Driver_api.dma_write ~off:(qh_off + 8) hdr;
    Driver_api.dma_set64 st.sched ~off:(qh_off + 16) (Int64.of_int (base + qtd_off));
    w32 st R.asynclistaddr (base + qh_off);
    w32 st R.usbcmd R.cmd_run;
    (* Poll for completion: the HC visits the schedule every microframe.
       Interrupt IN endpoints NAK while idle, so those get a short bound
       rather than a long one. *)
    let tries = if ep_type = R.ep_type_interrupt then 4 else 64 in
    let rec poll n =
      let flags = Char.code (Bytes.get (st.sched.Driver_api.dma_read ~off:(qtd_off + 8) ~len:1) 0) in
      if flags land R.qtd_active = 0 then begin
        let status = Char.code (Bytes.get (st.sched.Driver_api.dma_read ~off:(qtd_off + 9) ~len:1) 0) in
        let actual = Driver_api.dma_get32 st.sched ~off:(qtd_off + 24) in
        if status = 0 then Ok actual else Error (Printf.sprintf "stall (status %d)" status)
      end
      else if n = 0 then begin
        (* Give up: take the still-active qTD off the schedule, or the HC
           would complete it later into a buffer nobody reads (and eat a
           keyboard report with it).  Re-check once in case it completed
           between our last look and the removal. *)
        w32 st R.asynclistaddr 0;
        let flags =
          Char.code (Bytes.get (st.sched.Driver_api.dma_read ~off:(qtd_off + 8) ~len:1) 0)
        in
        if flags land R.qtd_active = 0 then poll 1 else Error "transfer timed out (NAK)"
      end
      else begin
        st.env.Driver_api.env_msleep 1;
        poll (n - 1)
      end
    in
    poll tries
  end

let read_back st len = st.sched.Driver_api.dma_read ~off:buf_off ~len

(* Submit + copy the completion data out while still holding no lock gap:
   the buffer is only valid until the next transfer reuses the arena, so
   grab it immediately. *)
let submit_in st ~devaddr ~ep ~ep_type ~data ~len ~skip =
  match submit st ~devaddr ~ep ~ep_type ~dir:1 ~data ~len with
  | Error e -> Error e
  | Ok actual -> Ok (Bytes.sub (read_back st (skip + actual)) skip actual)

let control st ~devaddr ~setup ~dir_in ~len =
  if Bytes.length setup <> 8 then Error "setup must be 8 bytes"
  else begin
    let total = 8 + len in
    match submit st ~devaddr ~ep:0 ~ep_type:R.ep_type_control ~dir:0 ~data:(Some setup) ~len:total with
    | Error e -> Error e
    | Ok actual ->
      if dir_in && actual > 0 then
        Ok (Bytes.sub (read_back st (8 + actual)) 8 actual)
      else Ok Bytes.empty
  end

let setup_packet ~req_type ~request ~value ~index ~length =
  let s = Bytes.create 8 in
  Bytes.set s 0 (Char.chr req_type);
  Bytes.set s 1 (Char.chr request);
  Bytes.set_uint16_le s 2 value;
  Bytes.set_uint16_le s 4 index;
  Bytes.set_uint16_le s 6 length;
  s

let make_handle st ~address ~cls =
  { Driver_api.ud_address = address;
    ud_class = cls;
    ud_control =
      (fun ~setup ~dir_in ~len -> control st ~devaddr:address ~setup ~dir_in ~len);
    ud_bulk_out =
      (fun ~ep data ->
         match
           submit st ~devaddr:address ~ep ~ep_type:R.ep_type_bulk ~dir:0 ~data:(Some data)
             ~len:(Bytes.length data)
         with
         | Ok _ -> Ok ()
         | Error e -> Error e);
    ud_bulk_in =
      (fun ~ep ~len ->
         submit_in st ~devaddr:address ~ep ~ep_type:R.ep_type_bulk ~data:None ~len ~skip:0);
    ud_interrupt_in =
      (fun ~ep ~len ->
         match
           submit_in st ~devaddr:address ~ep ~ep_type:R.ep_type_interrupt ~data:None ~len ~skip:0
         with
         | Ok report -> Ok (Some report)
         | Error "transfer timed out (NAK)" -> Ok None
         | Error e -> Error e) }

let enumerate st () =
  let nports = 2 in
  let handles = ref [] in
  for port = 0 to nports - 1 do
    let sc = r32 st (R.portsc0 + (4 * port)) in
    if sc land R.portsc_connect <> 0 then begin
      (* Reset the port: the device answers at address 0. *)
      w32 st (R.portsc0 + (4 * port)) (sc lor R.portsc_reset);
      st.env.Driver_api.env_msleep 10;
      let address = st.next_addr in
      st.next_addr <- st.next_addr + 1;
      let set_addr = setup_packet ~req_type:0x00 ~request:0x05 ~value:address ~index:0 ~length:0 in
      match control st ~devaddr:0 ~setup:set_addr ~dir_in:false ~len:0 with
      | Error e -> st.env.Driver_api.env_printk (Printf.sprintf "port %d: set_address: %s" port e)
      | Ok _ ->
        let get_desc =
          setup_packet ~req_type:0x80 ~request:0x06 ~value:0x0100 ~index:0 ~length:18
        in
        (match control st ~devaddr:address ~setup:get_desc ~dir_in:true ~len:18 with
         | Error e ->
           st.env.Driver_api.env_printk (Printf.sprintf "port %d: get_descriptor: %s" port e)
         | Ok d when Bytes.length d >= 18 ->
           let cls = Char.code (Bytes.get d 4) in
           let set_cfg = setup_packet ~req_type:0x00 ~request:0x09 ~value:1 ~index:0 ~length:0 in
           ignore (control st ~devaddr:address ~setup:set_cfg ~dir_in:false ~len:0
                   : (bytes, string) result);
           handles := make_handle st ~address ~cls :: !handles
         | Ok _ -> st.env.Driver_api.env_printk "short device descriptor")
    end
  done;
  Ok (List.rev !handles)

let probe env pdev =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_map_bar 0 with
     | Error e -> Error ("map BAR0: " ^ e)
     | Ok mmio ->
       (match pdev.Driver_api.pd_alloc_dma ~bytes:Bus.page_size () with
        | Error e -> Error ("schedule arena: " ^ e)
        | Ok sched ->
          let st = { env; mmio; sched; xfer_lock = Sync.Mutex.create (); next_addr = 1 } in
          w32 st R.usbcmd R.cmd_run;
          Ok { Driver_api.uh_enumerate = (fun () -> enumerate st ()) }))

let driver =
  { Driver_api.ud_name = "ehci-hcd"; ud_ids = [ (0x8086, 0x293A) ]; ud_probe = probe }

(* ---- class drivers ---- *)

let block_size = 512

let cbw ~tag ~dlen ~dir_in ~cb =
  let b = Bytes.make 31 '\000' in
  Bytes.set_int32_le b 0 0x43425355l;  (* 'USBC' *)
  Bytes.set_int32_le b 4 (Int32.of_int tag);
  Bytes.set_int32_le b 8 (Int32.of_int dlen);
  Bytes.set b 12 (if dir_in then '\x80' else '\x00');
  Bytes.set b 14 (Char.chr (Bytes.length cb));
  Bytes.blit cb 0 b 15 (Bytes.length cb);
  b

let bind_storage (ud : Driver_api.usb_dev_handle) =
  if ud.Driver_api.ud_class <> 0x08 then Error "not a mass-storage device"
  else begin
    let tag = ref 0 in
    let scsi ~cb ~dlen ~dir_in ~out_data =
      incr tag;
      match ud.Driver_api.ud_bulk_out ~ep:1 (cbw ~tag:!tag ~dlen ~dir_in ~cb) with
      | Error e -> Error ("CBW: " ^ e)
      | Ok () ->
        let data =
          if dir_in && dlen > 0 then ud.Driver_api.ud_bulk_in ~ep:2 ~len:dlen
          else if (not dir_in) && dlen > 0 then
            match ud.Driver_api.ud_bulk_out ~ep:1 out_data with
            | Ok () -> Ok Bytes.empty
            | Error e -> Error e
          else Ok Bytes.empty
        in
        (match data with
         | Error e -> Error ("data: " ^ e)
         | Ok payload ->
           (match ud.Driver_api.ud_bulk_in ~ep:2 ~len:13 with
            | Error e -> Error ("CSW: " ^ e)
            | Ok csw when Bytes.length csw = 13 && Bytes.get csw 12 = '\000' -> Ok payload
            | Ok _ -> Error "SCSI command failed"))
    in
    (* READ CAPACITY(10) *)
    let cap_cb = Bytes.make 10 '\000' in
    Bytes.set cap_cb 0 '\x25';
    match scsi ~cb:cap_cb ~dlen:8 ~dir_in:true ~out_data:Bytes.empty with
    | Error e -> Error ("read capacity: " ^ e)
    | Ok d when Bytes.length d = 8 ->
      let last_lba = Int32.to_int (Bytes.get_int32_be d 0) in
      let capacity = last_lba + 1 in
      Ok
        { Driver_api.bl_capacity = (fun () -> capacity);
          bl_read =
            (fun ~lba ~count ->
               if lba < 0 || count <= 0 || lba + count > capacity then Error "bad LBA range"
               else begin
                 let cb = Bytes.make 10 '\000' in
                 Bytes.set cb 0 '\x28';
                 Bytes.set_int32_be cb 2 (Int32.of_int lba);
                 Bytes.set_uint16_be cb 7 count;
                 scsi ~cb ~dlen:(count * block_size) ~dir_in:true ~out_data:Bytes.empty
               end);
          bl_write =
            (fun ~lba data ->
               let count = Bytes.length data / block_size in
               if count = 0 || Bytes.length data mod block_size <> 0 then
                 Error "write must be whole blocks"
               else if lba < 0 || lba + count > capacity then Error "bad LBA range"
               else begin
                 let cb = Bytes.make 10 '\000' in
                 Bytes.set cb 0 '\x2A';
                 Bytes.set_int32_be cb 2 (Int32.of_int lba);
                 Bytes.set_uint16_be cb 7 count;
                 match scsi ~cb ~dlen:(Bytes.length data) ~dir_in:false ~out_data:data with
                 | Ok _ -> Ok ()
                 | Error e -> Error e
               end) }
    | Ok _ -> Error "short READ CAPACITY response"
  end

let poll_keyboard env (ud : Driver_api.usb_dev_handle) (icb : Driver_api.input_callbacks) =
  env.Driver_api.env_spawn ~name:"usb-kbd-poll" (fun () ->
      let rec loop () =
        (match ud.Driver_api.ud_interrupt_in ~ep:1 ~len:8 with
         | Ok (Some report) when Bytes.length report >= 3 ->
           let key = Char.code (Bytes.get report 2) in
           if key <> 0 then icb.Driver_api.ic_key key
         | Ok (Some _) | Ok None -> ()
         | Error _ -> ());
        env.Driver_api.env_msleep 8;
        loop ()
      in
      loop ())
