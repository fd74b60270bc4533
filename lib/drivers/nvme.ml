(* The NVMe block driver — written once against Driver_api and hosted
   either natively or as an untrusted SUD process, like every other
   driver in this directory.

   One submission/completion queue pair per deliverable MSI-X vector.
   The command id (cid) is the SQ slot index — 16 bits on the wire —
   and the driver keeps the proxy's unbounded idempotency tag in a
   per-slot side table, [tags.(q).(slot)].  Bounding outstanding
   commands at [sq entries - 1] guarantees a slot is never reused while
   its previous occupant is still in flight. *)

module R = Nvme_dev.Regs

let sq_entries = 32

type queue = {
  qi : int;
  sq : Driver_api.dma_region;
  cq : Driver_api.dma_region;
  tags : int array;                  (* slot -> proxy tag, -1 = free *)
  mutable sq_tail : int;
  mutable cq_head : int;
  mutable phase : int;               (* phase value we expect next *)
  mutable outstanding : int;
}

type state = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.blk_callbacks;
  mmio : Driver_api.mmio;
  qs : queue array;
}

let r32 st off = st.mmio.Driver_api.mmio_read ~off ~size:4
let w32 st off v = st.mmio.Driver_api.mmio_write ~off ~size:4 v

let qcfg q reg = R.qcfg_base + (q * R.qcfg_stride) + reg
let sq_doorbell q = R.db_base + (q * 8)
let cq_doorbell q = R.db_base + (q * 8) + 4

(* Drain queue [q]'s completion ring: consume entries whose phase tag
   matches, map cid -> slot -> proxy tag, hand each to the host.  The
   CQ head doorbell is one MMIO write per pass, not per entry, as in
   Linux's nvme_process_cq. *)
let poll_cq st q =
  let consumed = ref false and progressed = ref true in
  while !progressed do
    progressed := false;
    let off = q.cq_head * R.cqe_size in
    let sp = Driver_api.dma_get32 q.cq ~off:(off + 12) in
    let status_phase = (sp lsr 16) land 0xFFFF in
    if status_phase land 1 = q.phase then begin
      let cid = sp land 0xFFFF in
      let status = status_phase lsr 1 in
      st.env.Driver_api.env_consume 200;
      q.cq_head <- q.cq_head + 1;
      if q.cq_head >= sq_entries then begin
        q.cq_head <- 0;
        q.phase <- 1 - q.phase
      end;
      (* A cid outside the slot table, or naming a free slot, is a device
         (or firmware-fault-injection) lie; there is no request to
         complete, so all we can do is drop it — the genuinely
         outstanding victim escalates by timeout. *)
      if cid < sq_entries && q.tags.(cid) >= 0 then begin
        let tag = q.tags.(cid) in
        q.tags.(cid) <- -1;
        q.outstanding <- q.outstanding - 1;
        st.cb.Driver_api.bc_complete ~queue:q.qi ~tag ~status
      end;
      consumed := true;
      progressed := true
    end
  done;
  if !consumed then w32 st (cq_doorbell q.qi) q.cq_head

(* Whether the device has posted an entry at queue [q]'s head. *)
let cq_posted q =
  (Driver_api.dma_get32 q.cq ~off:((q.cq_head * R.cqe_size) + 12) lsr 16) land 1 = q.phase

(* Poll, then ack, which unmasks the vector.  MSI-X latches a completion
   posted in between and replays it on the unmask.  On one queue the
   device signals legacy MSI, which latches nothing, so look again after
   the ack and go around if an entry landed, as e1000's napi_poll does. *)
let rec irq_handler st ~queue =
  let q = st.qs.(if queue >= 0 && queue < Array.length st.qs then queue else 0) in
  poll_cq st q;
  st.pdev.Driver_api.pd_irq_ack ~queue:q.qi ();
  if Array.length st.qs = 1 && cq_posted q then irq_handler st ~queue:q.qi

let submit st ~queue ~tag ~op ~lba ~count ~addr =
  let q = st.qs.(if queue >= 0 && queue < Array.length st.qs then queue else 0) in
  if q.outstanding >= sq_entries - 1 then `Busy
  else begin
    let base_op = op land lnot Proxy_proto.blk_op_fua in
    let opcode, flags =
      if base_op = Proxy_proto.blk_op_flush then (R.op_flush, 0)
      else if base_op = Proxy_proto.blk_op_write then
        (R.op_write, if op land Proxy_proto.blk_op_fua <> 0 then R.flags_fua else 0)
      else (R.op_read, 0)
    in
    let slot = q.sq_tail in
    let off = slot * R.sqe_size in
    st.env.Driver_api.env_consume 350;
    let sqe = Bytes.make R.sqe_size '\000' in
    Bytes.set sqe 0 (Char.chr opcode);
    Bytes.set sqe 1 (Char.chr flags);
    Bytes.set_uint16_le sqe 2 slot;
    Bytes.set_int64_le sqe 8 (Int64.of_int addr);
    Bytes.set_int64_le sqe 16 (Int64.of_int lba);
    Bytes.set_int32_le sqe 24 (Int32.of_int count);
    q.sq.Driver_api.dma_write ~off sqe;
    q.tags.(slot) <- tag;
    q.outstanding <- q.outstanding + 1;
    q.sq_tail <- (slot + 1) mod sq_entries;
    w32 st (sq_doorbell q.qi) q.sq_tail;
    `Ok
  end

let probe env pdev cb =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_map_bar 0 with
     | Error e -> Error ("map BAR0: " ^ e)
     | Ok mmio ->
       let alloc what bytes =
         match pdev.Driver_api.pd_alloc_dma ~bytes () with
         | Ok r -> r
         | Error e -> failwith (what ^ ": " ^ e)
       in
       let st0 = { env; pdev; cb; mmio; qs = [||] } in
       let cap_nqs = r32 st0 R.cap_nqs in
       let capacity = r32 st0 R.cap_lo lor (r32 st0 R.cap_hi lsl 32) in
       let nq = max 1 (min (pdev.Driver_api.pd_msix_vectors ()) cap_nqs) in
       (match
          Array.init nq (fun qi ->
              let sq = alloc "sq" (sq_entries * R.sqe_size) in
              let cq = alloc "cq" (sq_entries * R.cqe_size) in
              (* The completion ring must start phase-0 so the first pass
                 of device writes (phase 1) is distinguishable. *)
              cq.Driver_api.dma_write ~off:0
                (Bytes.make (sq_entries * R.cqe_size) '\000');
              { qi; sq; cq; tags = Array.make sq_entries (-1); sq_tail = 0;
                cq_head = 0; phase = 1; outstanding = 0 })
        with
        | exception Failure e -> Error e
        | qs ->
          let st = { st0 with qs } in
          Array.iter
            (fun q ->
               w32 st (qcfg q.qi R.sq_base_lo) (q.sq.Driver_api.dma_addr land 0xFFFFFFFF);
               w32 st (qcfg q.qi R.sq_base_hi) (q.sq.Driver_api.dma_addr lsr 32);
               w32 st (qcfg q.qi R.sq_size) sq_entries;
               w32 st (qcfg q.qi R.cq_base_lo) (q.cq.Driver_api.dma_addr land 0xFFFFFFFF);
               w32 st (qcfg q.qi R.cq_base_hi) (q.cq.Driver_api.dma_addr lsr 32);
               w32 st (qcfg q.qi R.cq_size) sq_entries)
            qs;
          (match pdev.Driver_api.pd_request_irqs ~n:nq (fun ~queue -> irq_handler st ~queue) with
           | Error e -> Error ("request_irqs: " ^ e)
           | Ok () ->
             w32 st R.cc R.cc_en;
             let rec wait_ready tries =
               if r32 st R.csts land R.csts_rdy <> 0 then Ok ()
               else if tries = 0 then Error "controller never became ready"
               else begin
                 env.Driver_api.env_msleep 1;
                 wait_ready (tries - 1)
               end
             in
             (match wait_ready 10 with
              | Error e ->
                pdev.Driver_api.pd_free_irq ();
                Error e
              | Ok () ->
                env.Driver_api.env_printk
                  (Printf.sprintf "nvme: %d sectors, %d queue pair%s, qd %d"
                     capacity nq (if nq = 1 then "" else "s") sq_entries);
                Ok
                  { Driver_api.bi_capacity = capacity;
                    bi_queues = nq;
                    bi_submit =
                      (fun ~queue ~tag ~op ~lba ~count ~addr ->
                         submit st ~queue ~tag ~op ~lba ~count ~addr) }))))

let driver =
  { Driver_api.bd_name = "nvme";
    bd_ids = [ (0x8086, 0x0953) ];
    bd_probe = probe }
