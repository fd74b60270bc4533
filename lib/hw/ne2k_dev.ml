module Regs = struct
  let cr = 0x00
  let pstart = 0x01
  let pstop = 0x02
  let bnry = 0x03
  let tpsr = 0x04
  let tbcr0 = 0x05
  let tbcr1 = 0x06
  let isr = 0x07
  let rsar0 = 0x08
  let rsar1 = 0x09
  let rbcr0 = 0x0A
  let rbcr1 = 0x0B
  let rcr = 0x0C
  let tcr = 0x0D
  let dcr = 0x0E
  let imr = 0x0F
  let dataport = 0x10
  let reset_port = 0x1F

  let par0 = 0x01
  let curr = 0x07

  let cr_stp = 0x01
  let cr_sta = 0x02
  let cr_txp = 0x04
  let cr_rd_read = 0x08
  let cr_rd_write = 0x10
  let cr_rd_abort = 0x20
  let cr_page1 = 0x40

  let isr_prx = 0x01
  let isr_ptx = 0x02
  let isr_rdc = 0x40

  let buffer_pages = 64 (* 16 KiB of on-card memory, pages 0x00..0x3F *)
end

open Regs

type t = {
  eng : Engine.t;
  dev : Device.t;
  buffer : bytes;               (* on-card packet memory *)
  mutable r_cr : int;
  mutable r_pstart : int;
  mutable r_pstop : int;
  mutable r_bnry : int;
  mutable r_tpsr : int;
  mutable r_tbcr : int;
  mutable r_isr : int;
  mutable r_imr : int;
  mutable r_rsar : int;
  mutable r_rbcr : int;
  mutable r_curr : int;
  par : bytes;          (* programmable MAC, page 1 *)
  port : Net_medium.port;
  medium : Net_medium.t;
}

let raise_irq t bits =
  t.r_isr <- t.r_isr lor bits;
  if t.r_isr land t.r_imr <> 0 then ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)

let buffer_size = buffer_pages * 256

(* Receive into the BNRY/CURR ring with the standard 4-byte packet header. *)
let receive t frame =
  if t.r_cr land cr_sta = 0 || t.r_pstop <= t.r_pstart then () (* stopped: dropped *)
  else begin
    let len = Bytes.length frame + 4 in
    let pages_needed = (len + 255) / 256 in
    let ring_pages = t.r_pstop - t.r_pstart in
    let used =
      if t.r_curr >= t.r_bnry then t.r_curr - t.r_bnry else ring_pages - (t.r_bnry - t.r_curr)
    in
    if pages_needed >= ring_pages - used then () (* overrun: dropped *)
    else begin
      let next_page cur = if cur + 1 >= t.r_pstop then t.r_pstart else cur + 1 in
      let first = t.r_curr in
      (* Compute the page following the packet. *)
      let next = ref first in
      for _ = 1 to pages_needed do next := next_page !next done;
      (* Header: status, next page pointer, length little-endian. *)
      let hdr = Bytes.create 4 in
      Bytes.set hdr 0 '\001';
      Bytes.set hdr 1 (Char.chr !next);
      Bytes.set_uint16_le hdr 2 len;
      let write_seq start_page data =
        let pos = ref (start_page * 256) and page = ref start_page and off = ref 0 in
        let n = Bytes.length data in
        while !off < n do
          if !pos land 0xff = 0 && !off > 0 then begin
            page := next_page !page;
            pos := !page * 256
          end;
          Bytes.set t.buffer !pos (Bytes.get data !off);
          incr pos;
          incr off
        done
      in
      write_seq first (Bytes.cat hdr frame);
      t.r_curr <- !next;
      raise_irq t isr_prx
    end
  end

let transmit t =
  let start = t.r_tpsr * 256 and len = t.r_tbcr in
  if len > 0 && start + len <= buffer_size then begin
    let frame = Bytes.sub t.buffer start len in
    Net_medium.send t.medium t.port frame
  end;
  t.r_cr <- t.r_cr land lnot cr_txp;
  raise_irq t isr_ptx

let page1 t = t.r_cr land cr_page1 <> 0

let io_read8 t off =
  if off = dataport then begin
    (* Remote DMA read: one byte per access. *)
    if t.r_rbcr = 0 then 0xff
    else begin
      let v = if t.r_rsar < buffer_size then Char.code (Bytes.get t.buffer t.r_rsar) else 0xff in
      t.r_rsar <- t.r_rsar + 1;
      t.r_rbcr <- t.r_rbcr - 1;
      if t.r_rbcr = 0 then raise_irq t isr_rdc;
      v
    end
  end
  else if off = reset_port then 0
  else if page1 t && off >= par0 && off < par0 + 6 then
    Char.code (Bytes.get t.par (off - par0))
  else if page1 t && off = curr then t.r_curr
  else if off = cr then t.r_cr
  else if off = isr then t.r_isr
  else if off = bnry then t.r_bnry
  else if off = pstart then t.r_pstart
  else if off = pstop then t.r_pstop
  else if off = rsar0 then t.r_rsar land 0xff
  else if off = rsar1 then t.r_rsar lsr 8
  else if off = rbcr0 then t.r_rbcr land 0xff
  else if off = rbcr1 then t.r_rbcr lsr 8
  else 0

let io_write8 t off v =
  let v = v land 0xff in
  if off = dataport then begin
    if t.r_rbcr > 0 then begin
      if t.r_rsar < buffer_size then Bytes.set t.buffer t.r_rsar (Char.chr v);
      t.r_rsar <- t.r_rsar + 1;
      t.r_rbcr <- t.r_rbcr - 1;
      if t.r_rbcr = 0 then raise_irq t isr_rdc
    end
  end
  else if off = reset_port then ()
  else if page1 t && off >= par0 && off < par0 + 6 then Bytes.set t.par (off - par0) (Char.chr v)
  else if page1 t && off = curr then t.r_curr <- v
  else if off = cr then begin
    t.r_cr <- v;
    if v land cr_rd_abort <> 0 then t.r_rbcr <- 0;
    if v land cr_txp <> 0 then
      ignore
        (Engine.schedule_after t.eng 1_000 (fun () -> transmit t)
         : Engine.handle)
  end
  else if off = pstart then t.r_pstart <- v
  else if off = pstop then t.r_pstop <- v
  else if off = bnry then t.r_bnry <- v
  else if off = tpsr then t.r_tpsr <- v
  else if off = tbcr0 then t.r_tbcr <- t.r_tbcr land 0xff00 lor v
  else if off = tbcr1 then t.r_tbcr <- t.r_tbcr land 0x00ff lor (v lsl 8)
  else if off = isr then t.r_isr <- t.r_isr land lnot v (* write-1-to-clear *)
  else if off = imr then t.r_imr <- v
  else if off = rsar0 then t.r_rsar <- t.r_rsar land 0xff00 lor v
  else if off = rsar1 then t.r_rsar <- t.r_rsar land 0x00ff lor (v lsl 8)
  else if off = rbcr0 then t.r_rbcr <- t.r_rbcr land 0xff00 lor v
  else if off = rbcr1 then t.r_rbcr <- t.r_rbcr land 0x00ff lor (v lsl 8)
  else if off = rcr || off = tcr || off = dcr then ()

let io_read t ~off ~size =
  match size with
  | 2 when off = dataport ->
    (* 16-bit dataport access transfers two bytes of remote DMA *)
    let lo = io_read8 t off in
    lo lor (io_read8 t off lsl 8)
  | _ -> io_read8 t off

let io_write t ~off ~size v =
  match size with
  | 1 -> io_write8 t off v
  | 2 when off = dataport ->
    io_write8 t off (v land 0xff);
    io_write8 t off ((v lsr 8) land 0xff)
  | _ -> io_write8 t off v

let create eng ~mac ~medium () =
  if Bytes.length mac <> 6 then invalid_arg "Ne2k_dev.create: MAC must be 6 bytes";
  let cfg =
    Pci_cfg.create ~vendor:0x10EC ~device:0x8029 ~class_code:0x020000
      ~bars:[| Some (Pci_cfg.Io { size = 0x20 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  let rec t =
    lazy
      (let dev = Device.create ~name:"ne2k" ~cfg ~ops:Device.no_io in
       let port =
         Net_medium.attach medium ~name:"ne2k" ~rx:(fun f -> receive (Lazy.force t) f)
       in
       { eng;
         dev;
         buffer = Bytes.make buffer_size '\000';
         r_cr = cr_stp;
         r_pstart = 0;
         r_pstop = 0;
         r_bnry = 0;
         r_tpsr = 0;
         r_tbcr = 0;
         r_isr = 0;
         r_imr = 0;
         r_rsar = 0;
         r_rbcr = 0;
         r_curr = 0;
         par = Bytes.copy mac;
         port;
         medium })
  in
  let t = Lazy.force t in
  (* The PROM image at the start of card memory holds the MAC doubled, as
     real cards do; drivers read it via remote DMA from address 0. *)
  for i = 0 to 5 do
    Bytes.set t.buffer (2 * i) (Bytes.get mac i);
    Bytes.set t.buffer ((2 * i) + 1) (Bytes.get mac i)
  done;
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      mmio_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      io_read = (fun ~bar:_ ~off ~size -> io_read t ~off ~size);
      io_write = (fun ~bar:_ ~off ~size v -> io_write t ~off ~size v);
      reset =
        (fun () ->
           t.r_cr <- cr_stp;
           t.r_isr <- 0;
           t.r_imr <- 0) };
  t

let device t = t.dev
