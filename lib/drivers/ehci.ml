module R = Usb_hci_dev.Regs

type state = {
  env : Driver_api.env;
  mmio : Driver_api.mmio;
  sched : Driver_api.dma_region;    (* QH + qTD + transfer buffer arena *)
  xfer_lock : Sync.Mutex.t;         (* one transfer on the schedule at a time *)
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
        if flags land R.qtd_active = 0 then poll 1 else Error Usbcore.nak
      end
      else begin
        st.env.Driver_api.env_msleep 1;
        poll (n - 1)
      end
    in
    poll tries
  end

let read_back st len = st.sched.Driver_api.dma_read ~off:buf_off ~len

(* Copy the completion data out at once: the buffer is only valid until
   the next transfer reuses the arena. *)
let submit_in st ~ep_type ~devaddr ~ep ~len =
  Result.map (read_back st) (submit st ~devaddr ~ep ~ep_type ~dir:1 ~data:None ~len)

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

(* One PORTSC read: write the reset back over what it read. *)
let reset_port st port =
  let sc = r32 st (R.portsc0 + (4 * port)) in
  sc land R.portsc_connect <> 0
  && begin
    w32 st (R.portsc0 + (4 * port)) (sc lor R.portsc_reset);
    true
  end

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
          let st = { env; mmio; sched; xfer_lock = Sync.Mutex.create () } in
          w32 st R.usbcmd R.cmd_run;
          Ok
            (Usbcore.host env
               { Usbcore.reset_port = reset_port st;
                 control = control st;
                 bulk_out =
                   (fun ~devaddr ~ep data ->
                      submit st ~devaddr ~ep ~ep_type:R.ep_type_bulk ~dir:0 ~data:(Some data)
                        ~len:(Bytes.length data)
                      |> Result.map ignore);
                 bulk_in = submit_in st ~ep_type:R.ep_type_bulk;
                 interrupt_in = submit_in st ~ep_type:R.ep_type_interrupt })))

let driver =
  { Driver_api.ud_name = "ehci-hcd"; ud_ids = [ (0x8086, 0x293A) ]; ud_probe = probe }
