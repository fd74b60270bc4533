module Regs = struct
  let ctrl = 0x0000
  let status = 0x0008
  let eerd = 0x0014
  let icr = 0x00C0
  let itr = 0x00C4
  let ics = 0x00C8
  let ims = 0x00D0
  let imc = 0x00D8
  let rctl = 0x0100
  let tctl = 0x0400
  let tdbal = 0x3800
  let tdbah = 0x3804
  let tdlen = 0x3808
  let tdh = 0x3810
  let tdt = 0x3818
  let rdbal = 0x2800
  let rdbah = 0x2804
  let rdlen = 0x2808
  let rdh = 0x2810
  let rdt = 0x2818
  let ral0 = 0x5400
  let rah0 = 0x5404
  let mrqc = 0x5818

  (* Queue [q]'s ring registers live at the queue-0 offset plus
     [q * queue_stride], e.g. RDT for queue 2 is [rdt + 0x200]. *)
  let queue_stride = 0x100
  let max_queues = 8

  let ctrl_rst = 1 lsl 26
  let status_lu = 1 lsl 1
  let eerd_start = 0x01
  let eerd_done = 0x10
  let rctl_en = 1 lsl 1
  let tctl_en = 1 lsl 1

  let int_txdw = 0x01
  let int_lsc = 0x04
  let int_rxt0 = 0x80

  let desc_size = 16
  let txd_cmd_eop = 0x01
  let txd_cmd_rs = 0x08
  let txd_sta_dd = 0x01
  let rxd_sta_dd = 0x01
  let rxd_sta_eop = 0x02
end

open Regs

type ring = {
  mutable ba : int;
  mutable len : int;
  mutable head : int;
  mutable tail : int;
}

let fresh_ring () = { ba = 0; len = 0; head = 0; tail = 0 }

let ring_reset r =
  r.ba <- 0;
  r.len <- 0;
  r.head <- 0;
  r.tail <- 0

type t = {
  eng : Engine.t;
  dev : Device.t;
  eeprom : int array;            (* 64 16-bit words; 0..2 hold the MAC *)
  queues : int;                  (* ring pairs / MSI-X vectors advertised *)
  mutable regs_ctrl : int;
  mutable regs_eerd : int;
  mutable regs_itr : int;        (* inter-interrupt gap in 256ns units *)
  mutable next_int_at : int;     (* ITR: earliest time the next MSI may fire *)
  mutable int_deferred : bool;
  mutable regs_icr : int;
  mutable regs_ims : int;
  mutable regs_rctl : int;
  mutable regs_tctl : int;
  mutable regs_mrqc : int;       (* active RSS queues; <= 1 disables RSS *)
  txr : ring array;
  rxr : ring array;
  tx_busy : bool array;          (* a TX processing pass is scheduled, per queue *)
  partial_tx : bytes list array; (* fragments until EOP, per queue *)
  mutable ral : int;
  mutable rah : int;
  port : Net_medium.port;
  medium : Net_medium.t;
  mutable n_tx : int;
  mutable n_rx : int;
  mutable n_drop : int;
  mutable n_dma_fault : int;
  n_rxq : int array;             (* frames landed per RX queue *)
}

let per_desc_delay = 250 (* ns of device-side processing per descriptor *)

let mac_of_eeprom eeprom =
  let b = Bytes.create 6 in
  for i = 0 to 2 do
    Bytes.set b (2 * i) (Char.chr (eeprom.(i) land 0xff));
    Bytes.set b ((2 * i) + 1) (Char.chr ((eeprom.(i) lsr 8) land 0xff))
  done;
  b

(* Interrupt moderation (ITR): like the real part, the device spaces MSI
   messages at least regs_itr*256ns apart; causes accumulate in ICR and
   are delivered in one (coalesced) interrupt. *)
let fire_msi t =
  t.next_int_at <- Engine.now t.eng + (t.regs_itr * 256);
  match Device.raise_msi t.dev with
  | Ok () -> ()
  | Error _ -> t.n_dma_fault <- t.n_dma_fault + 1

let rec raise_irq t cause =
  t.regs_icr <- t.regs_icr lor cause;
  if t.regs_icr land t.regs_ims <> 0 then begin
    let now = Engine.now t.eng in
    if t.regs_itr = 0 || now >= t.next_int_at then fire_msi t
    else if not t.int_deferred then begin
      t.int_deferred <- true;
      ignore
        (Engine.schedule_after t.eng (t.next_int_at - now) (fun () ->
             t.int_deferred <- false;
             raise_irq t 0)
         : Engine.handle)
    end
  end

(* Per-queue completion: in MSI-X mode queue [q] signals its own vector;
   otherwise fall back to the legacy coalesced ICR path. *)
let raise_queue_irq t q cause =
  if Pci_cfg.msix_enabled (Device.cfg t.dev) then begin
    match Device.raise_msix t.dev ~vector:q with
    | Ok () -> ()
    | Error _ -> t.n_dma_fault <- t.n_dma_fault + 1
  end
  else raise_irq t cause

let dma_read t addr len =
  match Device.dma_read t.dev ~addr ~len with
  | Ok b -> Some b
  | Error _ ->
    t.n_dma_fault <- t.n_dma_fault + 1;
    None

let dma_write t addr data =
  match Device.dma_write t.dev ~addr ~data with
  | Ok () -> true
  | Error _ ->
    t.n_dma_fault <- t.n_dma_fault + 1;
    false

let ring_slots r = if r.len = 0 then 0 else r.len / desc_size

(* Process TX descriptors [head, tail) of one queue; device-paced. *)
let rec process_tx t q =
  let r = t.txr.(q) in
  if t.regs_tctl land tctl_en = 0 || ring_slots r = 0 || r.head = r.tail then
    t.tx_busy.(q) <- false
  else begin
    let slot = r.head in
    let daddr = r.ba + (slot * desc_size) in
    (match dma_read t daddr desc_size with
     | None -> t.tx_busy.(q) <- false
     | Some desc ->
       let buf_addr = Int64.to_int (Bytes.get_int64_le desc 0) in
       let buf_len = Bytes.get_uint16_le desc 8 in
       let cmd = Char.code (Bytes.get desc 11) in
       (match if buf_len = 0 then Some Bytes.empty else dma_read t buf_addr buf_len with
        | None -> t.tx_busy.(q) <- false
        | Some payload ->
          t.partial_tx.(q) <- payload :: t.partial_tx.(q);
          if cmd land txd_cmd_eop <> 0 then begin
            let frame = Bytes.concat Bytes.empty (List.rev t.partial_tx.(q)) in
            t.partial_tx.(q) <- [];
            t.n_tx <- t.n_tx + 1;
            Net_medium.send t.medium t.port frame
          end;
          if cmd land txd_cmd_rs <> 0 then begin
            Bytes.set desc 12 (Char.chr txd_sta_dd);
            ignore (dma_write t daddr desc : bool)
          end;
          r.head <- (slot + 1) mod ring_slots r;
          if r.head = r.tail then begin
            t.tx_busy.(q) <- false;
            raise_queue_irq t q int_txdw
          end
          else
            ignore
              (Engine.schedule_after t.eng per_desc_delay (fun () -> process_tx t q)
               : Engine.handle)))
  end

let kick_tx t q =
  if (not t.tx_busy.(q)) && t.regs_tctl land tctl_en <> 0 then begin
    t.tx_busy.(q) <- true;
    ignore
      (Engine.schedule_after t.eng per_desc_delay (fun () -> process_tx t q)
       : Engine.handle)
  end

(* How many RX queues the incoming-frame dispatcher spreads over. *)
let active_rx_queues t =
  if t.regs_mrqc <= 1 then 1 else min t.regs_mrqc t.queues

let receive t frame =
  let q =
    let nq = active_rx_queues t in
    if nq <= 1 then 0 else Rss.queue_for ~queues:nq frame
  in
  let r = t.rxr.(q) in
  if t.regs_rctl land rctl_en = 0 || ring_slots r = 0 || r.head = r.tail then
    t.n_drop <- t.n_drop + 1
  else begin
    let slot = r.head in
    let daddr = r.ba + (slot * desc_size) in
    match dma_read t daddr desc_size with
    | None -> ()
    | Some desc ->
      let buf_addr = Int64.to_int (Bytes.get_int64_le desc 0) in
      if dma_write t buf_addr frame then begin
        Bytes.set_uint16_le desc 8 (Bytes.length frame);
        Bytes.set desc 12 (Char.chr (rxd_sta_dd lor rxd_sta_eop));
        if dma_write t daddr desc then begin
          r.head <- (slot + 1) mod ring_slots r;
          t.n_rx <- t.n_rx + 1;
          t.n_rxq.(q) <- t.n_rxq.(q) + 1;
          raise_queue_irq t q int_rxt0
        end
      end
  end

let reset t =
  t.regs_ctrl <- 0;
  t.regs_eerd <- 0;
  t.regs_itr <- 0;
  t.next_int_at <- 0;
  t.int_deferred <- false;
  t.regs_icr <- 0;
  t.regs_ims <- 0;
  t.regs_rctl <- 0;
  t.regs_tctl <- 0;
  t.regs_mrqc <- 0;
  Array.iter ring_reset t.txr;
  Array.iter ring_reset t.rxr;
  Array.fill t.tx_busy 0 (Array.length t.tx_busy) false;
  Array.fill t.partial_tx 0 (Array.length t.partial_tx) [];
  let mac = mac_of_eeprom t.eeprom in
  t.ral <-
    Char.code (Bytes.get mac 0)
    lor (Char.code (Bytes.get mac 1) lsl 8)
    lor (Char.code (Bytes.get mac 2) lsl 16)
    lor (Char.code (Bytes.get mac 3) lsl 24);
  t.rah <- Char.code (Bytes.get mac 4) lor (Char.code (Bytes.get mac 5) lsl 8) lor 0x80000000

(* Decompose a ring-register offset: queue index from the stride, base
   register from the remainder.  Returns [None] for non-ring offsets. *)
let ring_reg t off =
  let decode base =
    let d = off - base in
    if d >= 0 && d < max_queues * queue_stride && d mod queue_stride < 0x20 then begin
      let q = d / queue_stride and reg = base + (d mod queue_stride) in
      if q < t.queues then Some (q, reg) else None
    end
    else None
  in
  match decode rdbal with Some _ as r -> r | None -> decode tdbal

(* Register read without side effects (used for sub-word accesses and for
   peers reaching the register file by P2P DMA). *)
let peek t off =
  if off = ctrl then t.regs_ctrl
  else if off = status then status_lu
  else if off = eerd then t.regs_eerd
  else if off = itr then t.regs_itr
  else if off = icr then t.regs_icr
  else if off = ims then t.regs_ims
  else if off = rctl then t.regs_rctl
  else if off = tctl then t.regs_tctl
  else if off = mrqc then t.regs_mrqc
  else if off = ral0 then t.ral
  else if off = rah0 then t.rah
  else
    match ring_reg t off with
    | None -> 0
    | Some (q, reg) ->
      if reg = tdbal then t.txr.(q).ba land 0xFFFFFFFF
      else if reg = tdbah then t.txr.(q).ba lsr 32
      else if reg = tdlen then t.txr.(q).len
      else if reg = tdh then t.txr.(q).head
      else if reg = tdt then t.txr.(q).tail
      else if reg = rdbal then t.rxr.(q).ba land 0xFFFFFFFF
      else if reg = rdbah then t.rxr.(q).ba lsr 32
      else if reg = rdlen then t.rxr.(q).len
      else if reg = rdh then t.rxr.(q).head
      else if reg = rdt then t.rxr.(q).tail
      else 0

let read32 t off =
  if off = icr then begin
    let v = t.regs_icr in
    t.regs_icr <- 0;
    v
  end
  else peek t off

let write32 t off v =
  let v = v land 0xFFFFFFFF in
  if off = ctrl then begin
    if v land ctrl_rst <> 0 then reset t else t.regs_ctrl <- v
  end
  else if off = eerd then begin
    if v land eerd_start <> 0 then begin
      let addr = (v lsr 8) land 0x3f in
      t.regs_eerd <- (t.eeprom.(addr) lsl 16) lor eerd_done
    end
  end
  else if off = itr then t.regs_itr <- v land 0xFFFF
  else if off = ics then raise_irq t v
  else if off = ims then t.regs_ims <- t.regs_ims lor v
  else if off = imc then t.regs_ims <- t.regs_ims land lnot v
  else if off = rctl then t.regs_rctl <- v
  else if off = tctl then begin
    t.regs_tctl <- v;
    for q = 0 to t.queues - 1 do kick_tx t q done
  end
  else if off = mrqc then t.regs_mrqc <- min v t.queues
  else if off = ral0 then t.ral <- v
  else if off = rah0 then t.rah <- v
  else
    match ring_reg t off with
    | None -> ()
    | Some (q, reg) ->
      if reg = tdbal then t.txr.(q).ba <- t.txr.(q).ba land lnot 0xFFFFFFFF lor v
      else if reg = tdbah then t.txr.(q).ba <- t.txr.(q).ba land 0xFFFFFFFF lor (v lsl 32)
      else if reg = tdlen then t.txr.(q).len <- v
      else if reg = tdh then t.txr.(q).head <- v
      else if reg = tdt then begin
        t.txr.(q).tail <- v;
        kick_tx t q
      end
      else if reg = rdbal then t.rxr.(q).ba <- t.rxr.(q).ba land lnot 0xFFFFFFFF lor v
      else if reg = rdbah then t.rxr.(q).ba <- t.rxr.(q).ba land 0xFFFFFFFF lor (v lsl 32)
      else if reg = rdlen then t.rxr.(q).len <- v
      else if reg = rdh then t.rxr.(q).head <- v
      else if reg = rdt then t.rxr.(q).tail <- v

let sub_access off size =
  let word = off land lnot 3 and shift = (off land 3) * 8 in
  let mask = ((1 lsl (size * 8)) - 1) lsl shift in
  (word, shift, mask)

let mmio_read t ~bar ~off ~size =
  if bar <> 0 then 0
  else if size = 4 && off land 3 = 0 then read32 t off
  else begin
    let word, shift, mask = sub_access off size in
    (peek t word land mask) lsr shift
  end

let mmio_write t ~bar ~off ~size v =
  if bar = 0 then begin
    if size = 4 && off land 3 = 0 then write32 t off v
    else begin
      let word, shift, mask = sub_access off size in
      let merged = peek t word land lnot mask lor ((v lsl shift) land mask) in
      write32 t word merged
    end
  end

let create eng ~mac ~medium ?(queues = 1) () =
  if Bytes.length mac <> 6 then invalid_arg "E1000_dev.create: MAC must be 6 bytes";
  if queues < 1 || queues > max_queues then
    invalid_arg "E1000_dev.create: queues must be 1..8";
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x10D3 ~class_code:0x020000
      ~bars:[| Some (Pci_cfg.Mem { size = 0x20000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  Pci_cfg.add_msix_capability cfg ~vectors:queues;
  let eeprom = Array.make 64 0 in
  for i = 0 to 2 do
    eeprom.(i) <-
      Char.code (Bytes.get mac (2 * i)) lor (Char.code (Bytes.get mac ((2 * i) + 1)) lsl 8)
  done;
  let rec t =
    lazy
      (let dev = Device.create ~name:"e1000" ~cfg ~ops:Device.no_io in
       let port =
         Net_medium.attach medium ~rx:(fun frame -> receive (Lazy.force t) frame)
       in
       { eng;
         dev;
         eeprom;
         queues;
         regs_ctrl = 0;
         regs_eerd = 0;
         regs_itr = 0;
         next_int_at = 0;
         int_deferred = false;
         regs_icr = 0;
         regs_ims = 0;
         regs_rctl = 0;
         regs_tctl = 0;
         regs_mrqc = 0;
         txr = Array.init queues (fun _ -> fresh_ring ());
         rxr = Array.init queues (fun _ -> fresh_ring ());
         tx_busy = Array.make queues false;
         partial_tx = Array.make queues [];
         ral = 0;
         rah = 0;
         port;
         medium;
         n_tx = 0;
         n_rx = 0;
         n_drop = 0;
         n_dma_fault = 0;
         n_rxq = Array.make queues 0 })
  in
  let t = Lazy.force t in
  reset t;
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar ~off ~size -> mmio_read t ~bar ~off ~size);
      mmio_write = (fun ~bar ~off ~size v -> mmio_write t ~bar ~off ~size v);
      io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      reset = (fun () -> reset t) };
  t

let device t = t.dev
let mac t = mac_of_eeprom t.eeprom
let queues t = t.queues
let tx_frames t = t.n_tx
let rx_frames t = t.n_rx
let rx_dropped t = t.n_drop
let dma_faults t = t.n_dma_fault
let rx_queue_frames t ~queue = t.n_rxq.(queue)
