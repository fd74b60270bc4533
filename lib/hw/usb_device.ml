type transfer_result = Done of bytes | Nak | Stall

type kind =
  | Keyboard of { reports : bytes Queue.t }
  | Storage of storage_state

and storage_state = {
  blocks : bytes array;
  (* Bulk-only transport state machine: after a CBW arrives on the OUT
     endpoint we owe data and/or a CSW on the IN endpoint. *)
  mutable pending_in : bytes list;     (* queued IN payloads (data, then CSW) *)
  mutable expect_out : (int * int * int) option;  (* (lba, blocks_left, tag) for WRITE *)
}

type t = { uname : string; mutable addr : int; kind : kind }

let address t = t.addr
let set_address t a = t.addr <- a land 0x7f

let block_size = 512

let keyboard ~name = { uname = name; addr = 0; kind = Keyboard { reports = Queue.create () } }

let storage ~name ~blocks =
  if blocks <= 0 then invalid_arg "Usb_device.storage: need at least one block";
  { uname = name;
    addr = 0;
    kind =
      Storage
        { blocks = Array.init blocks (fun _ -> Bytes.make block_size '\000');
          pending_in = [];
          expect_out = None } }

let keyboard_pending t =
  match t.kind with Keyboard { reports } -> Queue.length reports | Storage _ -> 0

let keyboard_press t ~key =
  match t.kind with
  | Keyboard { reports } ->
    let r = Bytes.make 8 '\000' in
    Bytes.set r 2 (Char.chr (key land 0xff));
    Queue.push r reports
  | Storage _ -> invalid_arg "Usb_device.keyboard_press: not a keyboard"

let storage_state t =
  match t.kind with
  | Storage s -> s
  | Keyboard _ -> invalid_arg "Usb_device: not a storage device"

let storage_peek t ~lba =
  let s = storage_state t in
  if lba < 0 || lba >= Array.length s.blocks then invalid_arg "storage_peek: bad LBA";
  Bytes.copy s.blocks.(lba)

(* ---- standard control requests ---- *)

let device_descriptor t =
  let d = Bytes.make 18 '\000' in
  Bytes.set d 0 '\018';                    (* bLength *)
  Bytes.set d 1 '\001';                    (* DEVICE *)
  Bytes.set_uint16_le d 2 0x0200;          (* bcdUSB *)
  let cls = match t.kind with Keyboard _ -> 0x03 | Storage _ -> 0x08 in
  Bytes.set d 4 (Char.chr cls);
  Bytes.set_uint16_le d 8 0x1D6B;          (* idVendor *)
  Bytes.set_uint16_le d 10 (match t.kind with Keyboard _ -> 0x0001 | Storage _ -> 0x0002);
  Bytes.set d 17 '\001';                   (* bNumConfigurations *)
  d

let control t ~setup ~data =
  if Bytes.length setup <> 8 then Stall
  else begin
    let bm_request = Char.code (Bytes.get setup 0) in
    let b_request = Char.code (Bytes.get setup 1) in
    let w_value = Bytes.get_uint16_le setup 2 in
    let w_length = Bytes.get_uint16_le setup 6 in
    ignore data;
    match bm_request land 0x80, b_request with
    | 0x80, 0x06 ->
      (* GET_DESCRIPTOR *)
      let kind = w_value lsr 8 in
      if kind = 1 then begin
        let d = device_descriptor t in
        Done (Bytes.sub d 0 (min w_length (Bytes.length d)))
      end
      else Stall
    | 0x00, 0x05 ->
      (* SET_ADDRESS *)
      set_address t w_value;
      Done Bytes.empty
    | 0x00, 0x09 ->
      (* SET_CONFIGURATION *)
      Done Bytes.empty
    | _ -> Stall
  end

(* ---- SCSI over bulk-only transport ---- *)

let csw ~tag ~status =
  let c = Bytes.make 13 '\000' in
  Bytes.set_int32_le c 0 0x53425355l;      (* 'USBS' *)
  Bytes.set_int32_le c 4 (Int32.of_int tag);
  Bytes.set c 12 (Char.chr status);
  c

let scsi_execute s ~tag cb =
  let op = Char.code (Bytes.get cb 0) in
  if op = 0x00 (* TEST UNIT READY *) then s.pending_in <- [ csw ~tag ~status:0 ]
  else if op = 0x12 (* INQUIRY *) then begin
    let d = Bytes.make 36 '\000' in
    Bytes.blit_string "SUD-SIM " 0 d 8 8;
    Bytes.blit_string "Simulated Disk  " 0 d 16 16;
    s.pending_in <- [ d; csw ~tag ~status:0 ]
  end
  else if op = 0x25 (* READ CAPACITY *) then begin
    let d = Bytes.make 8 '\000' in
    Bytes.set_int32_be d 0 (Int32.of_int (Array.length s.blocks - 1));
    Bytes.set_int32_be d 4 (Int32.of_int block_size);
    s.pending_in <- [ d; csw ~tag ~status:0 ]
  end
  else if op = 0x28 (* READ(10) *) then begin
    let lba = Int32.to_int (Bytes.get_int32_be cb 2) in
    let count = Bytes.get_uint16_be cb 7 in
    if lba >= 0 && count >= 0 && lba + count <= Array.length s.blocks then begin
      let payload = Bytes.concat Bytes.empty (List.init count (fun i -> s.blocks.(lba + i))) in
      s.pending_in <- [ payload; csw ~tag ~status:0 ]
    end
    else s.pending_in <- [ csw ~tag ~status:1 ]
  end
  else if op = 0x2A (* WRITE(10) *) then begin
    let lba = Int32.to_int (Bytes.get_int32_be cb 2) in
    let count = Bytes.get_uint16_be cb 7 in
    if lba >= 0 && count > 0 && lba + count <= Array.length s.blocks then
      s.expect_out <- Some (lba, count, tag)
    else s.pending_in <- [ csw ~tag ~status:1 ]
  end
  else s.pending_in <- [ csw ~tag ~status:1 ]

let handle_bulk_out s data =
  match s.expect_out with
  | Some (lba, left, tag) ->
    (* WRITE data phase: whole blocks per transfer. *)
    let nblocks = Bytes.length data / block_size in
    let usable = min nblocks left in
    for i = 0 to usable - 1 do
      s.blocks.(lba + i) <- Bytes.sub data (i * block_size) block_size
    done;
    let left = left - usable in
    if left = 0 then begin
      s.expect_out <- None;
      s.pending_in <- [ csw ~tag ~status:0 ]
    end
    else s.expect_out <- Some (lba + usable, left, tag);
    Done Bytes.empty
  | None ->
    (* Expect a 31-byte CBW. *)
    if Bytes.length data >= 31 && Bytes.get_int32_le data 0 = 0x43425355l (* 'USBC' *) then begin
      let tag = Int32.to_int (Bytes.get_int32_le data 4) in
      let cb_len = Char.code (Bytes.get data 14) in
      let cb = Bytes.sub data 15 (min cb_len 16) in
      scsi_execute s ~tag cb;
      Done Bytes.empty
    end
    else Stall

let endpoint_out t ~ep ~data =
  match t.kind, ep with
  | Storage s, 1 -> handle_bulk_out s data
  | Storage _, _ | Keyboard _, _ -> Stall

let endpoint_in t ~ep ~len =
  match t.kind, ep with
  | Keyboard { reports }, 1 ->
    (match Queue.take_opt reports with
     | Some r -> Done (Bytes.sub r 0 (min len (Bytes.length r)))
     | None -> Nak)
  | Storage s, 2 ->
    (match s.pending_in with
     | [] -> Nak
     | x :: rest ->
       if Bytes.length x <= len then begin
         s.pending_in <- rest;
         Done x
       end
       else begin
         (* split large payloads across transfers *)
         s.pending_in <- Bytes.sub x len (Bytes.length x - len) :: rest;
         Done (Bytes.sub x 0 len)
       end)
  | Keyboard _, _ | Storage _, _ -> Stall
