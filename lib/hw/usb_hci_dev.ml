module Regs = struct
  let usbcmd = 0x00
  let usbsts = 0x04
  let usbintr = 0x08
  let asynclistaddr = 0x18
  let portsc0 = 0x44

  let cmd_run = 0x1
  let sts_int = 0x1
  let sts_port_change = 0x4
  let intr_enable = 0x1
  let portsc_connect = 0x1
  let portsc_enabled = 0x4
  let portsc_reset = 0x100

  let qh_size = 32
  let qtd_size = 32
  let qtd_active = 0x1
  let qtd_ioc = 0x2

  let ep_type_control = 0
  let ep_type_bulk = 2
  let ep_type_interrupt = 3
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
  mutable r_async : int;
  mutable ticking : bool;
}

let microframe_ns = 125_000

let raise_irq t bits =
  t.r_sts <- t.r_sts lor bits;
  if t.r_intr land intr_enable <> 0 then
    ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)

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

(* Execute one qTD against the addressed device.  Returns [None] on NAK
   (leave active for retry). *)
let execute t ~devaddr ~ep ~ep_type ~dir ~buf_addr ~len =
  match find_by_address t devaddr with
  | None -> Some (1, 0)   (* no such device: stall *)
  | Some dev ->
    if ep_type = ep_type_control then begin
      match dma_read t buf_addr 8 with
      | None -> Some (1, 0)
      | Some setup ->
        let w_length = Bytes.get_uint16_le setup 6 in
        let data_in = Char.code (Bytes.get setup 0) land 0x80 <> 0 in
        let out_data =
          if (not data_in) && w_length > 0 && len >= 8 + w_length then
            Option.value ~default:Bytes.empty (dma_read t (buf_addr + 8) w_length)
          else Bytes.empty
        in
        (match Usb_device.control dev ~setup ~data:out_data with
         | Usb_device.Done payload ->
           if data_in && Bytes.length payload > 0 then begin
             if dma_write t (buf_addr + 8) payload then
               Some (0, Bytes.length payload)
             else Some (1, 0)
           end
           else Some (0, 0)
         | Usb_device.Nak -> None
         | Usb_device.Stall -> Some (1, 0))
    end
    else if dir = 1 then begin
      match Usb_device.endpoint_in dev ~ep ~len with
      | Usb_device.Done payload ->
        if Bytes.length payload = 0 || dma_write t buf_addr payload then
          Some (0, Bytes.length payload)
        else Some (1, 0)
      | Usb_device.Nak -> None
      | Usb_device.Stall -> Some (1, 0)
    end
    else begin
      match dma_read t buf_addr len with
      | None -> Some (1, 0)
      | Some data ->
        (match Usb_device.endpoint_out dev ~ep ~data with
         | Usb_device.Done _ -> Some (0, len)
         | Usb_device.Nak -> None
         | Usb_device.Stall -> Some (1, 0))
    end

let process_qh t qh_addr =
  match dma_read t qh_addr qh_size with
  | None -> 0
  | Some qh ->
    let next = Int64.to_int (Bytes.get_int64_le qh 0) in
    let devaddr = Char.code (Bytes.get qh 8) in
    let ep = Char.code (Bytes.get qh 9) in
    let ep_type = Char.code (Bytes.get qh 10) in
    let dir = Char.code (Bytes.get qh 11) in
    let qtd_ptr = Int64.to_int (Bytes.get_int64_le qh 16) in
    if qtd_ptr <> 0 then begin
      match dma_read t qtd_ptr qtd_size with
      | None -> next
      | Some qtd ->
        let flags = Char.code (Bytes.get qtd 8) in
        if flags land qtd_active <> 0 then begin
          let len = Int32.to_int (Bytes.get_int32_le qtd 12) in
          let buf = Int64.to_int (Bytes.get_int64_le qtd 16) in
          match execute t ~devaddr ~ep ~ep_type ~dir ~buf_addr:buf ~len with
          | None -> ()   (* NAK: retry next microframe *)
          | Some (status, actual) ->
            Bytes.set qtd 8 (Char.chr (flags land lnot qtd_active));
            Bytes.set qtd 9 (Char.chr status);
            Bytes.set_int32_le qtd 24 (Int32.of_int actual);
            if dma_write t qtd_ptr qtd then begin
              (* Advance the QH to the next qTD in the chain. *)
              let next_qtd = Bytes.get_int64_le qtd 0 in
              Bytes.set_int64_le qh 16 next_qtd;
              ignore (dma_write t qh_addr qh : bool);
              if flags land qtd_ioc <> 0 then raise_irq t sts_int
            end
        end;
        next
    end
    else next

let rec tick t =
  if t.r_cmd land cmd_run <> 0 then begin
    let rec walk addr budget =
      if addr <> 0 && budget > 0 then begin
        let next = process_qh t addr in
        walk next (budget - 1)
      end
    in
    walk t.r_async 64;
    ignore (Engine.schedule_after t.eng microframe_ns (fun () -> tick t) : Engine.handle)
  end
  else t.ticking <- false

let start t =
  if not t.ticking then begin
    t.ticking <- true;
    ignore (Engine.schedule_after t.eng microframe_ns (fun () -> tick t) : Engine.handle)
  end

let read32 t off =
  if off = usbcmd then t.r_cmd
  else if off = usbsts then t.r_sts
  else if off = usbintr then t.r_intr
  else if off = asynclistaddr then t.r_async
  else if off >= portsc0 && off < portsc0 + (4 * Array.length t.portsc) then
    t.portsc.((off - portsc0) / 4)
  else 0

let write32 t off v =
  if off = usbcmd then begin
    t.r_cmd <- v;
    if v land cmd_run <> 0 then start t
  end
  else if off = usbsts then t.r_sts <- t.r_sts land lnot v (* write-1-to-clear *)
  else if off = usbintr then t.r_intr <- v
  else if off = asynclistaddr then t.r_async <- v
  else if off >= portsc0 && off < portsc0 + (4 * Array.length t.portsc) then begin
    let p = (off - portsc0) / 4 in
    if v land portsc_reset <> 0 then begin
      (* Port reset: the attached device returns to address 0 and the port
         becomes enabled. *)
      (match t.ports.(p) with
       | Some d -> Usb_device.set_address d 0
       | None -> ());
      t.portsc.(p) <- t.portsc.(p) land lnot portsc_reset lor portsc_enabled
    end
    else t.portsc.(p) <- v land lnot (portsc_connect lor portsc_enabled) lor (t.portsc.(p) land (portsc_connect lor portsc_enabled))
  end

let create eng ~ports () =
  if ports <= 0 || ports > 8 then invalid_arg "Usb_hci_dev.create: 1..8 ports";
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x293A ~class_code:0x0C0320
      ~bars:[| Some (Pci_cfg.Mem { size = 0x1000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  let t =
    { eng;
      dev = Device.create ~name:"ehci" ~cfg ~ops:Device.no_io;
      ports = Array.make ports None;
      portsc = Array.make ports 0;
      r_cmd = 0;
      r_sts = 0;
      r_intr = 0;
      r_async = 0;
      ticking = false }
  in
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar:_ ~off ~size:_ -> read32 t (off land lnot 3));
      mmio_write = (fun ~bar:_ ~off ~size:_ v -> write32 t (off land lnot 3) v);
      io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      reset =
        (fun () ->
           t.r_cmd <- 0;
           t.r_sts <- 0;
           t.r_intr <- 0;
           t.r_async <- 0) };
  t

let device t = t.dev

let plug t ~port dev =
  if port < 0 || port >= Array.length t.ports then invalid_arg "Usb_hci_dev.plug: bad port";
  t.ports.(port) <- Some dev;
  t.portsc.(port) <- t.portsc.(port) lor portsc_connect;
  raise_irq t sts_port_change
