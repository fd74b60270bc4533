module R = Uhci_dev.Regs

type state = {
  env : Driver_api.env;
  io : Driver_api.pio;
  frames : Driver_api.dma_region;   (* 1024-entry frame list *)
  tds : Driver_api.dma_region;      (* TD + buffer arena *)
  xfer_lock : Sync.Mutex.t;
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
        else Error Usbcore.nak
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

(* Bulk and interrupt IN are the same IN token here. *)
let data_in st ~devaddr ~ep ~len =
  Result.map (read_back st) (submit st ~pid:R.pid_in ~devaddr ~ep ~data:None ~len)

let reset_port st port =
  inw st (R.portsc1 + (2 * port)) land R.portsc_connect <> 0
  && begin
    outw st (R.portsc1 + (2 * port)) R.portsc_reset;
    true
  end

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
          let st = { env; io; frames; tds; xfer_lock = Sync.Mutex.create () } in
          (* Empty frame list, then run. *)
          let terminate = Bytes.create 4 in
          Bytes.set_int32_le terminate 0 (Int32.of_int R.lp_terminate);
          for i = 0 to R.frame_entries - 1 do
            st.frames.Driver_api.dma_write ~off:(4 * i) terminate
          done;
          outw st R.frbaseadd (frames.Driver_api.dma_addr land 0xFFFF);
          outw st (R.frbaseadd + 2) (frames.Driver_api.dma_addr lsr 16);
          outw st R.usbcmd R.cmd_rs;
          Ok
            (Usbcore.host env
               { Usbcore.reset_port = reset_port st;
                 control = control st;
                 bulk_out =
                   (fun ~devaddr ~ep data ->
                      submit st ~pid:R.pid_out ~devaddr ~ep ~data:(Some data)
                        ~len:(Bytes.length data)
                      |> Result.map ignore);
                 bulk_in = data_in st;
                 interrupt_in = data_in st })
        | Error e, _ | _, Error e -> Error ("alloc: " ^ e)))

let driver =
  { Driver_api.ud_name = "uhci-hcd"; ud_ids = [ (0x8086, 0x2934) ]; ud_probe = probe }
