(* usbcore: the part of the USB stack every host controller driver
   shares.  An HCD hands over its port reset and its transfers; usbcore
   enumerates the bus, builds the per-device handles and carries the
   class drivers that ride on them. *)

type hcd = {
  reset_port : int -> bool;
  control : devaddr:int -> setup:bytes -> dir_in:bool -> len:int -> (bytes, string) result;
  bulk_out : devaddr:int -> ep:int -> bytes -> (unit, string) result;
  bulk_in : devaddr:int -> ep:int -> len:int -> (bytes, string) result;
  interrupt_in : devaddr:int -> ep:int -> len:int -> (bytes, string) result;
}

let nak = "transfer timed out (NAK)"

let setup_packet ~req_type ~request ~value ~length =
  let s = Bytes.create 8 in
  Bytes.set s 0 (Char.chr req_type);
  Bytes.set s 1 (Char.chr request);
  Bytes.set_uint16_le s 2 value;
  Bytes.set_uint16_le s 4 0;
  Bytes.set_uint16_le s 6 length;
  s

let handle hc ~address ~cls =
  { Driver_api.ud_address = address;
    ud_class = cls;
    ud_control = hc.control ~devaddr:address;
    ud_bulk_out = hc.bulk_out ~devaddr:address;
    ud_bulk_in = hc.bulk_in ~devaddr:address;
    ud_interrupt_in =
      (fun ~ep ~len ->
         match hc.interrupt_in ~devaddr:address ~ep ~len with
         | Ok report -> Ok (Some report)
         | Error e when e = nak -> Ok None
         | Error e -> Error e) }

(* Port by port over the two root ports: reset, SET_ADDRESS,
   GET_DESCRIPTOR (device), SET_CONFIGURATION 1. *)
let enumerate (env : Driver_api.env) hc next_addr =
  let handles = ref [] in
  for port = 0 to 1 do
    if hc.reset_port port then begin
      (* The device answers at address 0 after the reset. *)
      env.Driver_api.env_msleep 10;
      let address = !next_addr in
      incr next_addr;
      let fail what e =
        env.Driver_api.env_printk (Printf.sprintf "usb port %d: %s: %s" port what e)
      in
      let set_addr = setup_packet ~req_type:0x00 ~request:0x05 ~value:address ~length:0 in
      match hc.control ~devaddr:0 ~setup:set_addr ~dir_in:false ~len:0 with
      | Error e -> fail "set_address" e
      | Ok _ ->
        let get_desc = setup_packet ~req_type:0x80 ~request:0x06 ~value:0x0100 ~length:18 in
        (match hc.control ~devaddr:address ~setup:get_desc ~dir_in:true ~len:18 with
         | Error e -> fail "get_descriptor" e
         | Ok d when Bytes.length d < 18 -> fail "get_descriptor" "short descriptor"
         | Ok d ->
           let set_cfg = setup_packet ~req_type:0x00 ~request:0x09 ~value:1 ~length:0 in
           ignore (hc.control ~devaddr:address ~setup:set_cfg ~dir_in:false ~len:0
                   : (bytes, string) result);
           handles := handle hc ~address ~cls:(Char.code (Bytes.get d 4)) :: !handles)
    end
  done;
  Ok (List.rev !handles)

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

(* usb-storage: bulk-only transport, READ CAPACITY then READ(10) and
   WRITE(10). *)
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

(* usb-hid: a worker polls the interrupt endpoint for 8-byte boot
   reports and feeds each pressed key to the callbacks. *)
let poll_keyboard (env : Driver_api.env) (ud : Driver_api.usb_dev_handle)
    (icb : Driver_api.input_callbacks) =
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

let host env hc =
  let next_addr = ref 1 in
  { Driver_api.uh_enumerate = (fun () -> enumerate env hc next_addr);
    uh_storage = bind_storage;
    uh_keyboard = poll_keyboard env }
