module Regs = struct
  let gctl = 0x08
  let intsts = 0x24
  let intctl = 0x20
  let icoi = 0x60
  let icii = 0x64
  let irii = 0x68

  let sd0_ctl = 0x80
  let sd0_sts = 0x84
  let sd0_lpib = 0x88
  let sd0_cbl = 0x8C
  let sd0_lvi = 0x90
  let sd0_bdpl = 0x98
  let sd0_bdpu = 0x9C

  let gctl_crst = 0x1
  let sdctl_run = 0x2
  let sdctl_ioce = 0x4
  let sdsts_bcis = 0x4
  let intsts_sd0 = 0x1

  let bdl_entry_size = 16
  let bdl_ioc = 0x1

  let verb_get_param = 0xF00
  let verb_set_power = 0x705
  let verb_set_volume = 0x300
  let verb_get_volume = 0xB00
  let param_vendor_id = 0x00
end

open Regs

type t = {
  eng : Engine.t;
  dev : Device.t;
  byte_rate : int;
  mutable r_gctl : int;
  mutable r_intsts : int;
  mutable r_intctl : int;
  mutable r_sdctl : int;
  mutable r_sdsts : int;
  mutable r_lpib : int;
  mutable r_cbl : int;
  mutable r_lvi : int;
  mutable r_bdp : int;
  mutable response : int;
  mutable response_valid : bool;
  mutable vol : int;
  mutable entry : int;          (* current BDL entry index *)
  mutable entry_left : int;     (* bytes left in current entry *)
  mutable running_tick : Engine.handle option;
  mutable played : int;
  mutable completed : int;
  mutable csum : int;
}

let tick_ns = 1_000_000 (* advance the stream every millisecond *)

let raise_irq t =
  t.r_intsts <- t.r_intsts lor intsts_sd0;
  if t.r_intctl land intsts_sd0 <> 0 then
    ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)

let dma_read t addr len =
  match Device.dma_read t.dev ~addr ~len with
  | Ok b -> Some b
  | Error _ -> None

let bdl_entry t idx =
  match dma_read t (t.r_bdp + (idx * bdl_entry_size)) bdl_entry_size with
  | None -> None
  | Some e ->
    let addr = Int64.to_int (Bytes.get_int64_le e 0) in
    let len = Int32.to_int (Bytes.get_int32_le e 8) in
    let flags = Int32.to_int (Bytes.get_int32_le e 12) in
    Some (addr, len, flags)

let consume t bytes =
  (* Walk the BDL consuming [bytes]; DMA-read each chunk (the "playback"). *)
  let left = ref bytes in
  while !left > 0 do
    if t.entry_left = 0 then begin
      match bdl_entry t t.entry with
      | Some (_, len, _) when len > 0 -> t.entry_left <- len
      | Some _ | None -> left := 0
    end;
    if !left > 0 && t.entry_left > 0 then begin
      match bdl_entry t t.entry with
      | None -> left := 0
      | Some (addr, len, flags) ->
        let off = len - t.entry_left in
        let chunk = min !left t.entry_left in
        (match dma_read t (addr + off) chunk with
         | None -> left := 0
         | Some pcm ->
           Bytes.iter (fun c -> t.csum <- (t.csum + Char.code c) land 0x3FFFFFFF) pcm;
           t.played <- t.played + chunk;
           t.r_lpib <- (t.r_lpib + chunk) mod max 1 t.r_cbl;
           t.entry_left <- t.entry_left - chunk;
           left := !left - chunk;
           if t.entry_left = 0 then begin
             t.completed <- t.completed + 1;
             if flags land bdl_ioc <> 0 && t.r_sdctl land sdctl_ioce <> 0 then begin
               t.r_sdsts <- t.r_sdsts lor sdsts_bcis;
               raise_irq t
             end;
             t.entry <- if t.entry >= t.r_lvi then 0 else t.entry + 1
           end)
    end
  done

let rec tick t =
  if t.r_sdctl land sdctl_run <> 0 then begin
    consume t (t.byte_rate * tick_ns / 1_000_000_000);
    t.running_tick <-
      Some (Engine.schedule_after t.eng tick_ns (fun () -> tick t))
  end
  else t.running_tick <- None

let start_stream t =
  if t.running_tick = None then
    t.running_tick <- Some (Engine.schedule_after t.eng tick_ns (fun () -> tick t))

let codec_exec t cmd =
  let verb = (cmd lsr 8) land 0xFFF in
  let payload = cmd land 0xFF in
  let resp =
    if verb = verb_get_param && payload = param_vendor_id then 0x11D41984
    else if verb = verb_set_power then 0
    else if verb = verb_set_volume then begin
      t.vol <- payload;
      0
    end
    else if verb = verb_get_volume then t.vol
    else 0
  in
  t.response <- resp;
  t.response_valid <- true

let reset t =
  t.r_gctl <- 0;
  t.r_intsts <- 0;
  t.r_intctl <- 0;
  t.r_sdctl <- 0;
  t.r_sdsts <- 0;
  t.r_lpib <- 0;
  t.r_cbl <- 0;
  t.r_lvi <- 0;
  t.r_bdp <- 0;
  t.response_valid <- false;
  t.entry <- 0;
  t.entry_left <- 0

let read32 t off =
  if off = gctl then t.r_gctl
  else if off = intsts then t.r_intsts
  else if off = intctl then t.r_intctl
  else if off = icii then if t.response_valid then 1 else 0
  else if off = irii then begin
    t.response_valid <- false;
    t.response
  end
  else if off = sd0_ctl then t.r_sdctl
  else if off = sd0_sts then t.r_sdsts
  else if off = sd0_lpib then t.r_lpib
  else if off = sd0_cbl then t.r_cbl
  else if off = sd0_lvi then t.r_lvi
  else if off = sd0_bdpl then t.r_bdp land 0xFFFFFFFF
  else if off = sd0_bdpu then t.r_bdp lsr 32
  else 0

let write32 t off v =
  if off = gctl then begin
    if v land gctl_crst = 0 then reset t;
    t.r_gctl <- v
  end
  else if off = intsts then t.r_intsts <- t.r_intsts land lnot v
  else if off = intctl then t.r_intctl <- v
  else if off = icoi then codec_exec t v
  else if off = sd0_ctl then begin
    let was_running = t.r_sdctl land sdctl_run <> 0 in
    t.r_sdctl <- v;
    if (not was_running) && v land sdctl_run <> 0 then start_stream t
  end
  else if off = sd0_sts then t.r_sdsts <- t.r_sdsts land lnot v
  else if off = sd0_cbl then t.r_cbl <- v
  else if off = sd0_lvi then t.r_lvi <- v
  else if off = sd0_bdpl then t.r_bdp <- t.r_bdp land lnot 0xFFFFFFFF lor v
  else if off = sd0_bdpu then t.r_bdp <- t.r_bdp land 0xFFFFFFFF lor (v lsl 32)

let create eng ?(byte_rate = 192_000) () =
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x293E ~class_code:0x040300
      ~bars:[| Some (Pci_cfg.Mem { size = 0x4000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  let t =
    { eng;
      dev = Device.create ~name:"hda" ~cfg ~ops:Device.no_io;
      byte_rate;
      r_gctl = 0;
      r_intsts = 0;
      r_intctl = 0;
      r_sdctl = 0;
      r_sdsts = 0;
      r_lpib = 0;
      r_cbl = 0;
      r_lvi = 0;
      r_bdp = 0;
      response = 0;
      response_valid = false;
      vol = 0;
      entry = 0;
      entry_left = 0;
      running_tick = None;
      played = 0;
      completed = 0;
      csum = 0 }
  in
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar:_ ~off ~size:_ -> read32 t (off land lnot 3));
      mmio_write = (fun ~bar:_ ~off ~size:_ v -> write32 t (off land lnot 3) v);
      io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      reset = (fun () -> reset t) };
  t

let device t = t.dev
let bytes_played t = t.played
let buffers_completed t = t.completed
let audio_checksum t = t.csum
let volume t = t.vol
