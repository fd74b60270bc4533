module Regs = struct
  let ctrl = 0x00
  let int_sts = 0x04
  let int_mask = 0x08
  let fw = 0x0C
  let cmd = 0x10
  let cmd_addr = 0x14
  let evq = 0x18
  let txb = 0x20
  let txlen = 0x24
  let txh = 0x28
  let txt = 0x2C
  let rxb = 0x30
  let rxlen = 0x34
  let rxh = 0x38
  let rxt = 0x3C
  let rate = 0x44
  let rate_table = 0x48
  let bss_count = 0x80
  let bss_table = 0x84

  let ctrl_enable = 0x1
  let ctrl_reset = 0x40000000

  let fw_magic = 0x57494649 (* "WIFI" *)
  let fw_ready = 0x1

  let int_tx = 0x1
  let int_rx = 0x2
  let int_event = 0x4

  let op_scan = 1
  let op_assoc = 2
  let op_disassoc = 3
  let op_set_rate = 4

  let ev_none = 0
  let ev_scan_done = 1
  let ev_assoc_done = 2
  let ev_disassoc = 3
  let ev_bss_changed = 4

  let desc_size = 16
end

open Regs

type bss = { bssid : int; ssid : string; signal_dbm : int }

let supported_rates = [| 6; 12; 24; 36; 48; 54 |]

type t = {
  eng : Engine.t;
  dev : Device.t;
  bss_list : bss list;
  mutable r_ctrl : int;
  mutable r_int : int;
  mutable r_mask : int;
  mutable fw_loaded : bool;
  mutable r_cmd_addr : int;
  mutable r_txb : int;
  mutable r_txlen : int;
  mutable r_txh : int;
  mutable r_txt : int;
  mutable r_rxb : int;
  mutable r_rxlen : int;
  mutable r_rxh : int;
  mutable r_rxt : int;
  mutable r_rate : int;
  mutable assoc : int option;
  events : int Queue.t;
  port : Net_medium.port;
  medium : Net_medium.t;
  mutable tx_busy : bool;
}

let raise_irq t bits =
  t.r_int <- t.r_int lor bits;
  if t.r_int land t.r_mask <> 0 then
    ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)

let push_event t ev =
  Queue.push ev t.events;
  raise_irq t int_event

let dma_read t addr len =
  match Device.dma_read t.dev ~addr ~len with
  | Ok b -> Some b
  | Error _ -> None

let dma_write t addr data =
  match Device.dma_write t.dev ~addr ~data with
  | Ok () -> true
  | Error _ -> false

let enabled t = t.r_ctrl land ctrl_enable <> 0 && t.fw_loaded

(* TX descriptors: addr(8) len(4) status(4); status 1 = done. *)
let rec process_tx t =
  if (not (enabled t)) || t.r_txlen = 0 || t.r_txh = t.r_txt then t.tx_busy <- false
  else begin
    let slots = t.r_txlen / desc_size in
    let slot = t.r_txh in
    let daddr = t.r_txb + (slot * desc_size) in
    match dma_read t daddr desc_size with
    | None -> t.tx_busy <- false
    | Some desc ->
      let buf = Int64.to_int (Bytes.get_int64_le desc 0) in
      let len = Int32.to_int (Bytes.get_int32_le desc 8) in
      (match dma_read t buf len with
       | None -> t.tx_busy <- false
       | Some frame ->
         if t.assoc <> None then begin
           Net_medium.send t.medium t.port frame
         end;
         Bytes.set_int32_le desc 12 1l;
         ignore (dma_write t daddr desc : bool);
         t.r_txh <- (slot + 1) mod slots;
         if t.r_txh = t.r_txt then begin
           t.tx_busy <- false;
           raise_irq t int_tx
         end
         else
           ignore
             (Engine.schedule_after t.eng 400 (fun () -> process_tx t)
              : Engine.handle))
  end

let kick_tx t =
  if (not t.tx_busy) && enabled t then begin
    t.tx_busy <- true;
    ignore (Engine.schedule_after t.eng 400 (fun () -> process_tx t) : Engine.handle)
  end

let receive t frame =
  if enabled t && t.assoc <> None && t.r_rxlen > 0 && t.r_rxh <> t.r_rxt then begin
    let slots = t.r_rxlen / desc_size in
    let slot = t.r_rxh in
    let daddr = t.r_rxb + (slot * desc_size) in
    match dma_read t daddr desc_size with
    | None -> ()
    | Some desc ->
      let buf = Int64.to_int (Bytes.get_int64_le desc 0) in
      if dma_write t buf frame then begin
        Bytes.set_int32_le desc 8 (Int32.of_int (Bytes.length frame));
        Bytes.set_int32_le desc 12 1l;
        if dma_write t daddr desc then begin
          t.r_rxh <- (slot + 1) mod slots;
          raise_irq t int_rx
        end
      end
  end

(* Mailbox command: a 16-byte block {op(4), arg(4), pad(8)} DMA-read from
   cmd_addr when the doorbell register is written. *)
let run_command t =
  match dma_read t t.r_cmd_addr 16 with
  | None -> ()
  | Some block ->
    let op = Int32.to_int (Bytes.get_int32_le block 0) in
    let arg = Int32.to_int (Bytes.get_int32_le block 4) in
    if op = op_scan then
      ignore
        (Engine.schedule_after t.eng 2_000_000 (fun () -> push_event t ev_scan_done)
         : Engine.handle)
    else if op = op_assoc then begin
      if List.exists (fun b -> b.bssid = arg) t.bss_list then
        ignore
          (Engine.schedule_after t.eng 500_000 (fun () ->
               t.assoc <- Some arg;
               push_event t ev_assoc_done)
           : Engine.handle)
    end
    else if op = op_disassoc then begin
      t.assoc <- None;
      push_event t ev_disassoc
    end
    else if op = op_set_rate then begin
      if arg >= 0 && arg < Array.length supported_rates then t.r_rate <- arg
    end

let reset t =
  t.r_ctrl <- 0;
  t.r_int <- 0;
  t.r_mask <- 0;
  t.fw_loaded <- false;
  t.r_txb <- 0;
  t.r_txlen <- 0;
  t.r_txh <- 0;
  t.r_txt <- 0;
  t.r_rxb <- 0;
  t.r_rxlen <- 0;
  t.r_rxh <- 0;
  t.r_rxt <- 0;
  t.r_rate <- 0;
  t.assoc <- None;
  Queue.clear t.events

let read32 t off =
  if off = ctrl then t.r_ctrl
  else if off = int_sts then begin
    let v = t.r_int in
    t.r_int <- 0;
    v
  end
  else if off = int_mask then t.r_mask
  else if off = fw then if t.fw_loaded then fw_ready else 0
  else if off = evq then (match Queue.take_opt t.events with Some e -> e | None -> ev_none)
  else if off = cmd_addr then t.r_cmd_addr
  else if off = txb then t.r_txb
  else if off = txlen then t.r_txlen
  else if off = txh then t.r_txh
  else if off = txt then t.r_txt
  else if off = rxb then t.r_rxb
  else if off = rxlen then t.r_rxlen
  else if off = rxh then t.r_rxh
  else if off = rxt then t.r_rxt
  else if off = rate then t.r_rate
  else if off >= rate_table && off < rate_table + (4 * Array.length supported_rates) then
    supported_rates.((off - rate_table) / 4)
  else if off = bss_count then List.length t.bss_list
  else if off >= bss_table && off < bss_table + (8 * List.length t.bss_list) then begin
    let idx = (off - bss_table) / 8 in
    let b = List.nth t.bss_list idx in
    if (off - bss_table) mod 8 = 0 then b.bssid else b.signal_dbm land 0xff
  end
  else 0

let write32 t off v =
  if off = ctrl then begin
    if v land ctrl_reset <> 0 then reset t else t.r_ctrl <- v
  end
  else if off = int_mask then t.r_mask <- v
  else if off = fw then begin
    if v = fw_magic then t.fw_loaded <- true
  end
  else if off = cmd then run_command t
  else if off = cmd_addr then t.r_cmd_addr <- v
  else if off = txb then t.r_txb <- v
  else if off = txlen then t.r_txlen <- v
  else if off = txh then t.r_txh <- v
  else if off = txt then begin
    t.r_txt <- v;
    kick_tx t
  end
  else if off = rxb then t.r_rxb <- v
  else if off = rxlen then t.r_rxlen <- v
  else if off = rxh then t.r_rxh <- v
  else if off = rxt then t.r_rxt <- v
  else if off = rate then begin
    if v >= 0 && v < Array.length supported_rates then t.r_rate <- v
  end

let create eng ~mac ~medium ~bss_list () =
  if Bytes.length mac <> 6 then invalid_arg "Wifi_dev.create: MAC must be 6 bytes";
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x4232 ~class_code:0x028000
      ~bars:[| Some (Pci_cfg.Mem { size = 0x2000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  let rec t =
    lazy
      (let dev = Device.create ~name:"iwl" ~cfg ~ops:Device.no_io in
       let port = Net_medium.attach medium ~rx:(fun f -> receive (Lazy.force t) f) in
       { eng;
         dev;
         bss_list;
         r_ctrl = 0;
         r_int = 0;
         r_mask = 0;
         fw_loaded = false;
         r_cmd_addr = 0;
         r_txb = 0;
         r_txlen = 0;
         r_txh = 0;
         r_txt = 0;
         r_rxb = 0;
         r_rxlen = 0;
         r_rxh = 0;
         r_rxt = 0;
         r_rate = 0;
         assoc = None;
         events = Queue.create ();
         port;
         medium;
         tx_busy = false })
  in
  let t = Lazy.force t in
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar:_ ~off ~size:_ -> read32 t (off land lnot 3));
      mmio_write = (fun ~bar:_ ~off ~size:_ v -> write32 t (off land lnot 3) v);
      io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      reset = (fun () -> reset t) };
  t

let device t = t.dev
let associated t = t.assoc
let current_rate t = supported_rates.(t.r_rate)

let roam t ~bssid =
  if List.exists (fun b -> b.bssid = bssid) t.bss_list then begin
    t.assoc <- Some bssid;
    push_event t ev_bss_changed
  end
