module Regs = struct
  let usbcmd = 0x00
  let usbsts = 0x02
  let usbintr = 0x04
  let frnum = 0x06
  let frbaseadd = 0x08
  let portsc1 = 0x10

  let cmd_rs = 0x1
  let sts_int = 0x1
  let portsc_connect = 0x1
  let portsc_enabled = 0x4
  let portsc_reset = 0x200

  let pid_setup = 0x2D
  let pid_in = 0x69
  let pid_out = 0xE1

  let td_size = 32
  let td_active = 1 lsl 23
  let td_stalled = 1 lsl 22
  let td_ioc = 1 lsl 24
  let lp_terminate = 1
  let frame_entries = 1024
end

open Regs

type t = {
  eng : Engine.t;
  dev : Device.t;
  ports : Usb_device.t option array;
  portsc : int array;
  mutable r_cmd : int;
  mutable r_sts : int;
  mutable r_intr : int;
  mutable r_frnum : int;
  mutable r_frbase : int;
  mutable ticking : bool;
  (* Setup packets must precede the data stage; remember the last SETUP per
     device address, as the function's "control pipe state". *)
  pending_setup : (int, bytes) Hashtbl.t;
}

let frame_ns = 1_000_000

let raise_irq t =
  t.r_sts <- t.r_sts lor sts_int;
  if t.r_intr land 1 <> 0 then ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)

let dma_read t addr len =
  match Device.dma_read t.dev ~addr ~len with
  | Ok b -> Some b
  | Error _ -> None

let dma_write t addr data =
  match Device.dma_write t.dev ~addr ~data with
  | Ok () -> true
  | Error _ -> false

let find_by_address t addr =
  Array.to_list t.ports
  |> List.filter_map Fun.id
  |> List.find_opt (fun d -> Usb_device.address d = addr)

(* Execute one TD; Some (status_bits, actual_len) to complete, None to
   leave active (NAK). *)
let execute t ~pid ~devaddr ~ep ~maxlen ~buf =
  match find_by_address t devaddr with
  | None -> Some (td_stalled, 0)
  | Some dev ->
    if pid = pid_setup then begin
      match dma_read t buf 8 with
      | None -> Some (td_stalled, 0)
      | Some setup ->
        Hashtbl.replace t.pending_setup devaddr setup;
        let w_length = Bytes.get_uint16_le setup 6 in
        let dir_in = Char.code (Bytes.get setup 0) land 0x80 <> 0 in
        if w_length = 0 || not dir_in then begin
          (* No IN data stage expected through a separate TD in our
             simplified driver: OUT-data control requests carry their data
             right after the setup in the same buffer. *)
          let out_data =
            if w_length > 0 then
              Option.value ~default:Bytes.empty (dma_read t (buf + 8) w_length)
            else Bytes.empty
          in
          match Usb_device.control dev ~setup ~data:out_data with
          | Usb_device.Done _ -> Some (0, 8)
          | Usb_device.Nak -> None
          | Usb_device.Stall -> Some (td_stalled, 0)
        end
        else Some (0, 8)   (* IN data arrives via the next IN TD *)
    end
    else if pid = pid_in then begin
      (* Either the data stage of a pending control transfer, or a plain
         endpoint IN. *)
      match Hashtbl.find_opt t.pending_setup devaddr with
      | Some setup when ep = 0 ->
        Hashtbl.remove t.pending_setup devaddr;
        (match Usb_device.control dev ~setup ~data:Bytes.empty with
         | Usb_device.Done payload ->
           let n = min maxlen (Bytes.length payload) in
           if n = 0 || dma_write t buf (Bytes.sub payload 0 n) then Some (0, n)
           else Some (td_stalled, 0)
         | Usb_device.Nak -> None
         | Usb_device.Stall -> Some (td_stalled, 0))
      | _ ->
        (match Usb_device.endpoint_in dev ~ep ~len:maxlen with
         | Usb_device.Done payload ->
           if Bytes.length payload = 0 || dma_write t buf payload then
             Some (0, Bytes.length payload)
           else Some (td_stalled, 0)
         | Usb_device.Nak -> None
         | Usb_device.Stall -> Some (td_stalled, 0))
    end
    else if pid = pid_out then begin
      match dma_read t buf maxlen with
      | None -> Some (td_stalled, 0)
      | Some data ->
        (match Usb_device.endpoint_out dev ~ep ~data with
         | Usb_device.Done _ -> Some (0, maxlen)
         | Usb_device.Nak -> None
         | Usb_device.Stall -> Some (td_stalled, 0))
    end
    else Some (td_stalled, 0)

let process_td t td_addr =
  match dma_read t td_addr td_size with
  | None -> 0
  | Some td ->
    let link = Int32.to_int (Bytes.get_int32_le td 0) land 0xFFFFFFFF in
    let ctrl = Int32.to_int (Bytes.get_int32_le td 4) land 0xFFFFFFFF in
    if ctrl land td_active = 0 then link
    else begin
      let token = Int32.to_int (Bytes.get_int32_le td 8) land 0xFFFFFFFF in
      let pid = token land 0xFF in
      let devaddr = (token lsr 8) land 0x7F in
      let ep = (token lsr 15) land 0xF in
      let maxlen = (token lsr 21) land 0x7FF in
      let buf = Int32.to_int (Bytes.get_int32_le td 12) land 0xFFFFFFFF in
      (match execute t ~pid ~devaddr ~ep ~maxlen ~buf with
       | None -> ()   (* NAK: stay active, retried next frame *)
       | Some (status, actual) ->
         let ctrl' = ctrl land lnot td_active lor status lor (actual land 0x7FF) in
         Bytes.set_int32_le td 4 (Int32.of_int ctrl');
         if dma_write t td_addr td then begin
           if ctrl land td_ioc <> 0 then raise_irq t
         end);
      link
    end

let rec tick t =
  if t.r_cmd land cmd_rs <> 0 then begin
    if t.r_frbase <> 0 then begin
      let slot = t.r_frnum land (frame_entries - 1) in
      match dma_read t (t.r_frbase + (4 * slot)) 4 with
      | None -> ()
      | Some e ->
        let ptr = Int32.to_int (Bytes.get_int32_le e 0) land 0xFFFFFFFF in
        (* Walk the TD chain, bounded. *)
        let rec walk addr budget =
          if addr land lp_terminate = 0 && addr <> 0 && budget > 0 then begin
            let next = process_td t (addr land lnot 0xF) in
            walk next (budget - 1)
          end
        in
        walk ptr 32
    end;
    t.r_frnum <- (t.r_frnum + 1) land 0x7FF;
    ignore (Engine.schedule_after t.eng frame_ns (fun () -> tick t) : Engine.handle)
  end
  else t.ticking <- false

let start t =
  if not t.ticking then begin
    t.ticking <- true;
    ignore (Engine.schedule_after t.eng frame_ns (fun () -> tick t) : Engine.handle)
  end

let io_read t off size =
  let v =
    if off = usbcmd then t.r_cmd
    else if off = usbsts then t.r_sts
    else if off = usbintr then t.r_intr
    else if off = frnum then t.r_frnum
    else if off = frbaseadd then t.r_frbase
    else if off = frbaseadd + 2 then t.r_frbase lsr 16
    else if off >= portsc1 && off < portsc1 + (2 * Array.length t.portsc) then
      t.portsc.((off - portsc1) / 2)
    else 0xFFFF
  in
  v land ((1 lsl (size * 8)) - 1)

let io_write t off size v =
  if off = usbcmd then begin
    t.r_cmd <- v;
    if v land cmd_rs <> 0 then start t
  end
  else if off = usbsts then t.r_sts <- t.r_sts land lnot v
  else if off = usbintr then t.r_intr <- v
  else if off = frnum then t.r_frnum <- v land 0x7FF
  else if off = frbaseadd then
    if size = 4 then t.r_frbase <- v land 0xFFFFF000
    else t.r_frbase <- t.r_frbase land 0xFFFF0000 lor (v land 0xF000)
  else if off = frbaseadd + 2 then t.r_frbase <- t.r_frbase land 0xFFFF lor (v lsl 16)
  else if off >= portsc1 && off < portsc1 + (2 * Array.length t.portsc) then begin
    let p = (off - portsc1) / 2 in
    if v land portsc_reset <> 0 then begin
      (match t.ports.(p) with Some d -> Usb_device.set_address d 0 | None -> ());
      t.portsc.(p) <- t.portsc.(p) land lnot portsc_reset lor portsc_enabled
    end
  end

let create eng ~ports () =
  if ports <= 0 || ports > 4 then invalid_arg "Uhci_dev.create: 1..4 ports";
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x2934 ~class_code:0x0C0300
      ~bars:[| Some (Pci_cfg.Io { size = 0x20 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  let t =
    { eng;
      dev = Device.create ~name:"uhci" ~cfg ~ops:Device.no_io;
      ports = Array.make ports None;
      portsc = Array.make ports 0;
      r_cmd = 0;
      r_sts = 0;
      r_intr = 0;
      r_frnum = 0;
      r_frbase = 0;
      ticking = false;
      pending_setup = Hashtbl.create 4 }
  in
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      mmio_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      io_read = (fun ~bar:_ ~off ~size -> io_read t off size);
      io_write = (fun ~bar:_ ~off ~size v -> io_write t off size v);
      reset =
        (fun () ->
           t.r_cmd <- 0;
           t.r_sts <- 0;
           t.r_intr <- 0;
           t.r_frnum <- 0;
           t.r_frbase <- 0;
           Hashtbl.reset t.pending_setup) };
  t

let device t = t.dev

let plug t ~port dev =
  if port < 0 || port >= Array.length t.ports then invalid_arg "Uhci_dev.plug: bad port";
  t.ports.(port) <- Some dev;
  t.portsc.(port) <- t.portsc.(port) lor portsc_connect;
  raise_irq t
