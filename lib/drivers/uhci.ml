module R = Uhci_dev.Regs

type state = {
  env : Driver_api.env;
  io : Driver_api.pio;
  frames : Driver_api.dma_region;   (* 1024-entry frame list *)
  tds : Driver_api.dma_region;      (* TD + buffer arena *)
  xfer_lock : Sync.Mutex.t;
  mutable next_addr : int;
}

let outw st off v = st.io.Driver_api.pio_write ~off ~size:2 v
let inw st off = st.io.Driver_api.pio_read ~off ~size:2

let td_off = 0
let buf_off = 64
let buf_max = 3968

(* Arm one TD in every frame-list slot so the HC finds it at the very next
   frame, run it to completion, then unlink. *)
let submit st ~pid ~devaddr ~ep ~data ~len =
  if len > buf_max then Error "transfer too large"
  else Sync.Mutex.with_lock st.xfer_lock @@ fun () ->
    (match data with
     | Some d -> st.tds.Driver_api.dma_write ~off:buf_off d
     | None -> ());
    let base = st.tds.Driver_api.dma_addr in
    let td = Bytes.make R.td_size '\000' in
    Bytes.set_int32_le td 0 (Int32.of_int R.lp_terminate);
    Bytes.set_int32_le td 4 (Int32.of_int (R.td_active lor R.td_ioc));
    Bytes.set_int32_le td 8
      (Int32.of_int (pid lor (devaddr lsl 8) lor (ep lsl 15) lor (len lsl 21)));
    Bytes.set_int32_le td 12 (Int32.of_int (base + buf_off));
    st.tds.Driver_api.dma_write ~off:td_off td;
    let slot_entry = Bytes.create 4 in
    Bytes.set_int32_le slot_entry 0 (Int32.of_int (base + td_off));
    for i = 0 to R.frame_entries - 1 do
      st.frames.Driver_api.dma_write ~off:(4 * i) slot_entry
    done;
    let unlink () =
      let terminate = Bytes.create 4 in
      Bytes.set_int32_le terminate 0 (Int32.of_int R.lp_terminate);
      for i = 0 to R.frame_entries - 1 do
        st.frames.Driver_api.dma_write ~off:(4 * i) terminate
      done
    in
    let tries = if pid = R.pid_in && ep > 0 then 4 else 64 in
    let rec poll n =
      let ctrl =
        Int32.to_int (Bytes.get_int32_le (st.tds.Driver_api.dma_read ~off:(td_off + 4) ~len:4) 0)
        land 0xFFFFFFFF
      in
      if ctrl land R.td_active = 0 then begin
        unlink ();
        if ctrl land R.td_stalled <> 0 then Error "stalled"
        else Ok (ctrl land 0x7FF)
      end
      else if n = 0 then begin
        unlink ();
        (* Re-check: the HC may have completed it during the unlink. *)
        let ctrl =
          Int32.to_int
            (Bytes.get_int32_le (st.tds.Driver_api.dma_read ~off:(td_off + 4) ~len:4) 0)
          land 0xFFFFFFFF
        in
        if ctrl land R.td_active = 0 && ctrl land R.td_stalled = 0 then Ok (ctrl land 0x7FF)
        else Error "transfer timed out (NAK)"
      end
      else begin
        st.env.Driver_api.env_msleep 1;
        poll (n - 1)
      end
    in
    poll tries

let read_back st len = st.tds.Driver_api.dma_read ~off:buf_off ~len

let control st ~devaddr ~setup ~dir_in ~len =
  if Bytes.length setup <> 8 then Error "setup must be 8 bytes"
  else begin
    match submit st ~pid:R.pid_setup ~devaddr ~ep:0 ~data:(Some setup) ~len:(8 + len) with
    | Error e -> Error ("setup: " ^ e)
    | Ok _ ->
      if dir_in && len > 0 then begin
        match submit st ~pid:R.pid_in ~devaddr ~ep:0 ~data:None ~len with
        | Error e -> Error ("data: " ^ e)
        | Ok actual -> Ok (read_back st actual)
      end
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
    ud_control = (fun ~setup ~dir_in ~len -> control st ~devaddr:address ~setup ~dir_in ~len);
    ud_bulk_out =
      (fun ~ep data ->
         match
           submit st ~pid:R.pid_out ~devaddr:address ~ep ~data:(Some data)
             ~len:(Bytes.length data)
         with
         | Ok _ -> Ok ()
         | Error e -> Error e);
    ud_bulk_in =
      (fun ~ep ~len ->
         match submit st ~pid:R.pid_in ~devaddr:address ~ep ~data:None ~len with
         | Ok actual -> Ok (read_back st actual)
         | Error e -> Error e);
    ud_interrupt_in =
      (fun ~ep ~len ->
         match submit st ~pid:R.pid_in ~devaddr:address ~ep ~data:None ~len with
         | Ok actual -> Ok (Some (read_back st actual))
         | Error "transfer timed out (NAK)" -> Ok None
         | Error e -> Error e) }

let enumerate st () =
  let handles = ref [] in
  for port = 0 to 1 do
    let sc = inw st (R.portsc1 + (2 * port)) in
    if sc land R.portsc_connect <> 0 then begin
      outw st (R.portsc1 + (2 * port)) R.portsc_reset;
      st.env.Driver_api.env_msleep 10;
      let address = st.next_addr in
      st.next_addr <- st.next_addr + 1;
      let set_addr = setup_packet ~req_type:0x00 ~request:0x05 ~value:address ~index:0 ~length:0 in
      match control st ~devaddr:0 ~setup:set_addr ~dir_in:false ~len:0 with
      | Error e -> st.env.Driver_api.env_printk (Printf.sprintf "uhci port %d: %s" port e)
      | Ok _ ->
        let get_desc =
          setup_packet ~req_type:0x80 ~request:0x06 ~value:0x0100 ~index:0 ~length:18
        in
        (match control st ~devaddr:address ~setup:get_desc ~dir_in:true ~len:18 with
         | Ok d when Bytes.length d >= 18 ->
           let cls = Char.code (Bytes.get d 4) in
           let set_cfg = setup_packet ~req_type:0x00 ~request:0x09 ~value:1 ~index:0 ~length:0 in
           ignore (control st ~devaddr:address ~setup:set_cfg ~dir_in:false ~len:0
                   : (bytes, string) result);
           handles := make_handle st ~address ~cls :: !handles
         | Ok _ -> st.env.Driver_api.env_printk "uhci: short descriptor"
         | Error e ->
           st.env.Driver_api.env_printk (Printf.sprintf "uhci port %d: descriptor: %s" port e))
    end
  done;
  Ok (List.rev !handles)

let probe env pdev =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_io_bar 0 with
     | Error e -> Error ("io bar: " ^ e)
     | Ok io ->
       (match
          ( pdev.Driver_api.pd_alloc_dma ~bytes:4096 (),
            pdev.Driver_api.pd_alloc_dma ~bytes:4096 () )
        with
        | Ok frames, Ok tds ->
          let st =
            { env; io; frames; tds; xfer_lock = Sync.Mutex.create (); next_addr = 1 }
          in
          (* Empty frame list, then run. *)
          let terminate = Bytes.create 4 in
          Bytes.set_int32_le terminate 0 (Int32.of_int R.lp_terminate);
          for i = 0 to R.frame_entries - 1 do
            st.frames.Driver_api.dma_write ~off:(4 * i) terminate
          done;
          outw st R.frbaseadd (frames.Driver_api.dma_addr land 0xFFFF);
          outw st (R.frbaseadd + 2) (frames.Driver_api.dma_addr lsr 16);
          outw st R.usbcmd R.cmd_rs;
          Ok { Driver_api.uh_enumerate = (fun () -> enumerate st ()) }
        | Error e, _ | _, Error e -> Error ("alloc: " ^ e)))

let driver =
  { Driver_api.ud_name = "uhci-hcd"; ud_ids = [ (0x8086, 0x2934) ]; ud_probe = probe }
