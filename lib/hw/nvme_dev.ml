(* A simulated NVMe-style block controller: paired submission/completion
   queues in host memory, per-queue doorbells, DMA for both the queue
   entries and the data, one MSI-X vector per queue pair.

   The durability model is the part the sud-blk recovery machinery is
   built against: writes land in a {e volatile} write cache that only a
   flush (or a FUA write) moves to media, and [reset] — the supervisor's
   FLR stand-in — drops the cache.  A driver death therefore genuinely
   loses unflushed data at the device, exactly the window crash-consistent
   replay has to cover. *)

module Regs = struct
  let cap_mqes = 0x00            (* max queue entries (RO) *)
  let cap_nqs = 0x04             (* queue pairs implemented (RO) *)
  let vs = 0x08                  (* version (RO) *)
  let cc = 0x14                  (* controller config: bit0 EN *)
  let csts = 0x1C                (* controller status: bit0 RDY *)
  let cap_lo = 0x28              (* capacity in sectors, low 32 (RO) *)
  let cap_hi = 0x2C

  (* Queue-pair configuration block: queue [q]'s registers start at
     [qcfg_base + q * qcfg_stride]. *)
  let qcfg_base = 0x100
  let qcfg_stride = 0x20
  let sq_base_lo = 0x00
  let sq_base_hi = 0x04
  let sq_size = 0x08             (* entries *)
  let cq_base_lo = 0x0C
  let cq_base_hi = 0x10
  let cq_size = 0x14

  (* Doorbells: SQ tail at [db_base + q*8], CQ head at [+4]. *)
  let db_base = 0x1000

  let cc_en = 1
  let csts_rdy = 1

  let sqe_size = 64
  let cqe_size = 16

  (* NVMe IO command set opcodes. *)
  let op_flush = 0x00
  let op_write = 0x01
  let op_read = 0x02

  let flags_fua = 0x01

  let max_queues = 8
  let mqes = 256
end

open Regs

let sector_size = 512

type qp = {
  mutable sqb : int;             (* SQ base bus address *)
  mutable sqn : int;             (* SQ entries *)
  mutable cqb : int;
  mutable cqn : int;
  mutable sq_head : int;         (* device consumer index *)
  mutable sq_tail : int;         (* driver producer index (doorbell) *)
  mutable cq_tail : int;         (* device producer index *)
  mutable cq_head : int;         (* driver consumer index (doorbell) *)
  mutable cq_phase : int;        (* phase the device writes this wrap *)
  mutable busy : bool;           (* a processing pass is scheduled *)
}

let fresh_qp () =
  { sqb = 0; sqn = 0; cqb = 0; cqn = 0; sq_head = 0; sq_tail = 0;
    cq_tail = 0; cq_head = 0; cq_phase = 1; busy = false }

let qp_reset q =
  q.sqb <- 0; q.sqn <- 0; q.cqb <- 0; q.cqn <- 0;
  q.sq_head <- 0; q.sq_tail <- 0; q.cq_tail <- 0; q.cq_head <- 0;
  q.cq_phase <- 1; q.busy <- false

type t = {
  eng : Engine.t;
  dev : Device.t;
  capacity : int;                            (* sectors *)
  mutable regs_cc : int;
  mutable regs_csts : int;
  qps : qp array;
  (* Durable media vs volatile write cache, both lba -> 512B sector.
     [reset] clears the cache and leaves media — the crash window. *)
  media : (int, bytes) Hashtbl.t;
  wcache : (int, bytes) Hashtbl.t;
  mutable epoch : int;                       (* invalidates scheduled work across reset *)
  (* Storage fault hooks (armed by the soak harness, one-shot). *)
  mutable corrupt_next_completion : int option;  (* xor mask over the cid *)
  mutable drop_next_completion : bool;
  mutable drop_next_flush : bool;
  mutable n_write : int;
  mutable n_fua : int;
}

let queues = 4 (* hardware queue pairs, one MSI-X vector each *)
let per_cmd_delay = 400 (* ns of device-side processing per command *)

let enabled t = t.regs_cc land cc_en <> 0

let dma_read t ~addr ~len =
  match Device.dma_read t.dev ~addr ~len with
  | Ok b -> Some b
  | Error _ -> None

let dma_write t ~addr ~data =
  match Device.dma_write t.dev ~addr ~data with
  | Ok () -> true
  | Error _ -> false

(* What a never-written sector reads as.  Shared and only ever read. *)
let zero_sector = Bytes.make sector_size '\000'

let sector_of tbl lba =
  match Hashtbl.find_opt tbl lba with Some b -> b | None -> zero_sector

let persist_sector t lba data =
  Hashtbl.replace t.media lba data;
  Hashtbl.remove t.wcache lba

let do_flush t =
  Hashtbl.iter (fun lba data -> Hashtbl.replace t.media lba data) t.wcache;
  Hashtbl.reset t.wcache

(* Post one CQE and signal the queue's vector.  This is where the
   one-shot completion faults bite: a dropped completion vanishes (the
   request stays outstanding forever from the host's point of view), a
   corrupted one carries a garbled cid. *)
let post_cqe t qi cid status =
  let q = t.qps.(qi) in
  if q.cqn > 0 then begin
    if t.drop_next_completion then t.drop_next_completion <- false
    else begin
      let cid =
        match t.corrupt_next_completion with
        | Some mask ->
          t.corrupt_next_completion <- None;
          (cid lxor mask) land 0xFFFF
        | None -> cid
      in
      let cqe = Bytes.make cqe_size '\000' in
      Bytes.set_uint16_le cqe 8 (q.sq_head land 0xFFFF);
      Bytes.set_uint16_le cqe 12 (cid land 0xFFFF);
      Bytes.set_uint16_le cqe 14 ((status lsl 1) lor q.cq_phase);
      let addr = q.cqb + (q.cq_tail * cqe_size) in
      if dma_write t ~addr ~data:cqe then begin
        q.cq_tail <- q.cq_tail + 1;
        if q.cq_tail >= q.cqn then begin
          q.cq_tail <- 0;
          q.cq_phase <- 1 - q.cq_phase
        end;
        if Pci_cfg.msix_enabled (Device.cfg t.dev) then
          ignore (Device.raise_msix t.dev ~vector:qi : (unit, Bus.fault) result)
        else ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)
      end
    end
  end

let cq_full q = q.cqn > 0 && (q.cq_tail + 1) mod q.cqn = q.cq_head

(* Execute one submission entry.  Data moves by DMA against the PRP the
   entry names, so a driver pointing it at unmapped IOVA space faults in
   the IOMMU like any other rogue DMA. *)
let execute t qi sqe =
  let op = Char.code (Bytes.get sqe 0) in
  let flags = Char.code (Bytes.get sqe 1) in
  let cid = Bytes.get_uint16_le sqe 2 in
  let prp = Int64.to_int (Bytes.get_int64_le sqe 8) in
  let slba = Int64.to_int (Bytes.get_int64_le sqe 16) in
  let count = Int32.to_int (Bytes.get_int32_le sqe 24) land 0xFFFFFFFF in
  if op = op_flush then begin
    if t.drop_next_flush then
      (* The lying-firmware fault: the flush disappears — nothing is
         persisted and, crucially, nothing is acknowledged, so the host
         escalates by timeout instead of trusting a false durability
         claim. *)
      t.drop_next_flush <- false
    else begin
      do_flush t;
      post_cqe t qi cid 0
    end
  end
  else if op = op_write then begin
    if count = 0 || slba < 0 || slba + count > t.capacity then post_cqe t qi cid 2
    else
      match dma_read t ~addr:prp ~len:(count * sector_size) with
      | None -> post_cqe t qi cid 1
      | Some data ->
        t.n_write <- t.n_write + 1;
        let fua = flags land flags_fua <> 0 in
        if fua then t.n_fua <- t.n_fua + 1;
        for i = 0 to count - 1 do
          let s = Bytes.sub data (i * sector_size) sector_size in
          if fua then persist_sector t (slba + i) s
          else Hashtbl.replace t.wcache (slba + i) s
        done;
        post_cqe t qi cid 0
  end
  else if op = op_read then begin
    if count = 0 || slba < 0 || slba + count > t.capacity then post_cqe t qi cid 2
    else begin
      let data = Bytes.create (count * sector_size) in
      for i = 0 to count - 1 do
        let s =
          match Hashtbl.find_opt t.wcache (slba + i) with
          | Some b -> b
          | None -> sector_of t.media (slba + i)
        in
        Bytes.blit s 0 data (i * sector_size) sector_size
      done;
      if dma_write t ~addr:prp ~data then post_cqe t qi cid 0
      else post_cqe t qi cid 1
    end
  end
  else post_cqe t qi cid 3                   (* unknown opcode *)

(* Pull commands off queue [qi] one per [per_cmd_delay], like the e1000's
   per-descriptor pacing.  Stalls when the CQ is full; the CQ head
   doorbell kicks it again. *)
let rec kick t qi =
  let q = t.qps.(qi) in
  if enabled t && (not q.busy) && q.sqn > 0 && q.sq_head <> q.sq_tail
     && not (cq_full q)
  then begin
    q.busy <- true;
    let epoch = t.epoch in
    ignore
      (Engine.schedule_after t.eng per_cmd_delay (fun () ->
           if t.epoch = epoch then begin
             q.busy <- false;
             if enabled t && q.sqn > 0 && q.sq_head <> q.sq_tail && not (cq_full q)
             then begin
               let idx = q.sq_head in
               q.sq_head <- (q.sq_head + 1) mod q.sqn;
               (match dma_read t ~addr:(q.sqb + (idx * sqe_size)) ~len:sqe_size with
                | Some sqe -> execute t qi sqe
                | None -> ());
               kick t qi
             end
           end)
       : Engine.handle)
  end

let reset t =
  t.epoch <- t.epoch + 1;
  t.regs_cc <- 0;
  t.regs_csts <- 0;
  Array.iter qp_reset t.qps;
  (* Volatile cache contents die with the controller. *)
  Hashtbl.reset t.wcache;
  t.corrupt_next_completion <- None;
  t.drop_next_completion <- false;
  t.drop_next_flush <- false

let qcfg_reg off =
  if off < qcfg_base then None
  else
    let rel = off - qcfg_base in
    let q = rel / qcfg_stride and reg = rel mod qcfg_stride in
    if q < max_queues then Some (q, reg) else None

let db_reg off =
  if off < db_base then None
  else
    let rel = off - db_base in
    let q = rel / 8 and reg = rel mod 8 in
    if q < max_queues && (reg = 0 || reg = 4) then Some (q, reg) else None

let peek t off =
  if off = cap_mqes then mqes
  else if off = cap_nqs then queues
  else if off = vs then 0x00010400
  else if off = cc then t.regs_cc
  else if off = csts then t.regs_csts
  else if off = cap_lo then t.capacity land 0xFFFFFFFF
  else if off = cap_hi then t.capacity lsr 32
  else
    match qcfg_reg off with
    | Some (qi, reg) when qi < queues ->
      let q = t.qps.(qi) in
      if reg = sq_base_lo then q.sqb land 0xFFFFFFFF
      else if reg = sq_base_hi then q.sqb lsr 32
      else if reg = sq_size then q.sqn
      else if reg = cq_base_lo then q.cqb land 0xFFFFFFFF
      else if reg = cq_base_hi then q.cqb lsr 32
      else if reg = cq_size then q.cqn
      else 0
    | _ -> 0

let write32 t off v =
  let v = v land 0xFFFFFFFF in
  if off = cc then begin
    let was = enabled t in
    t.regs_cc <- v;
    if v land cc_en <> 0 then begin
      t.regs_csts <- csts_rdy;
      if not was then for qi = 0 to queues - 1 do kick t qi done
    end
    else t.regs_csts <- 0
  end
  else
    match qcfg_reg off with
    | Some (qi, reg) when qi < queues ->
      let q = t.qps.(qi) in
      if reg = sq_base_lo then q.sqb <- q.sqb land lnot 0xFFFFFFFF lor v
      else if reg = sq_base_hi then q.sqb <- q.sqb land 0xFFFFFFFF lor (v lsl 32)
      else if reg = sq_size then q.sqn <- min v mqes
      else if reg = cq_base_lo then q.cqb <- q.cqb land lnot 0xFFFFFFFF lor v
      else if reg = cq_base_hi then q.cqb <- q.cqb land 0xFFFFFFFF lor (v lsl 32)
      else if reg = cq_size then q.cqn <- min v mqes
    | _ ->
      (match db_reg off with
       | Some (qi, reg) when qi < queues ->
         let q = t.qps.(qi) in
         if reg = 0 then begin
           if q.sqn > 0 then begin
             q.sq_tail <- v mod q.sqn;
             kick t qi
           end
         end
         else if q.cqn > 0 then begin
           q.cq_head <- v mod q.cqn;
           (* The driver has reaped every entry posted so far, so the
              queue's interrupt condition is gone.  MSI-X asks the
              function to clear the pending bit then, "to avoid sending
              a spurious interrupt message later when software unmasks
              the vector"; a later completion latches it again. *)
           if q.cq_head = q.cq_tail then
             Pci_cfg.msix_set_pending (Device.cfg t.dev) ~vector:qi false;
           kick t qi                       (* CQ space may unstall the SQ *)
         end
       | _ -> ())

let create eng ?(capacity = 16384) () =
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x0953 ~class_code:0x010802
      ~bars:[| Some (Pci_cfg.Mem { size = 0x4000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  Pci_cfg.add_msix_capability cfg ~vectors:queues;
  let dev = Device.create ~name:"nvme" ~cfg ~ops:Device.no_io in
  let t =
    { eng;
      dev;
      capacity;
      regs_cc = 0;
      regs_csts = 0;
      qps = Array.init max_queues (fun _ -> fresh_qp ());
      media = Hashtbl.create 1024;
      wcache = Hashtbl.create 256;
      epoch = 0;
      corrupt_next_completion = None;
      drop_next_completion = false;
      drop_next_flush = false;
      n_write = 0;
      n_fua = 0 }
  in
  reset t;
  Device.set_ops t.dev
    (Device.mmio32 ~read32:(peek t) ~peek:(peek t) ~write32:(write32 t)
       ~reset:(fun () -> reset t));
  t

let device t = t.dev
let capacity t = t.capacity

(* Oracle-side accessor for the crash-consistency invariant: what is
   durably on media (survives reset). *)
let media_sector t ~lba = Hashtbl.find_opt t.media lba

let inject_corrupt_completion t ~mask =
  t.corrupt_next_completion <- Some (mask land 0xFFFF)

let inject_drop_completion t = t.drop_next_completion <- true
let inject_drop_flush t = t.drop_next_flush <- true

let debug_qp_summary t =
  String.concat "; "
    (List.init queues (fun qi ->
         let q = t.qps.(qi) in
         Printf.sprintf "q%d sqh %d sqt %d cqt %d cqh %d cqn %d busy %b" qi
           q.sq_head q.sq_tail q.cq_tail q.cq_head q.cqn q.busy))

let writes t = t.n_write
let fua_writes t = t.n_fua
