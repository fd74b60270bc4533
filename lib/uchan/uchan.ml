type error = Hung | Interrupted | Closed

let hang_timeout_ns = 50_000_000      (* 50 ms before a sync upcall is declared hung *)
let full_grace_ns = 2_000_000         (* grace period on a full async ring *)
let default_batch_limit = 64
let max_queues = 16

(* Replies travel on the same rings as requests, distinguished by a high
   bit in the marshalled kind. *)
let reply_flag = 0x8000

type waiter = { cell : (Msg.t, error) result option ref; wq : Sync.Waitq.t }

type metrics = {
  um_up : Sud_obs.Metrics.counter;
  um_down : Sud_obs.Metrics.counter;
  um_notify : Sud_obs.Metrics.counter;
  um_dropped : Sud_obs.Metrics.counter;
  um_malformed : Sud_obs.Metrics.counter;
  um_malformed_frames : Sud_obs.Metrics.counter;
  um_rpc_ns : Sud_obs.Metrics.histogram;   (* sync RPC round-trip, ns *)
}

(* Per-queue slice of the channel: one ring pair, its waitqs, and the
   driver-side async batch.  Each queue is served by its own driver
   fiber (for data queues), whose kernel entries drain its u2k ring, so
   batches are effectively per-CPU — two queues never contend on a
   ring. *)
type qstate = {
  qi : int;
  k2u : Ring.t;
  u2k : Ring.t;
  u_waitq : Sync.Waitq.t;                (* driver sleeping in [wait] on this queue *)
  k_space : Sync.Waitq.t;                (* kernel waiting for k2u space *)
  mutable draining : bool;               (* a fiber is draining u2k ([drain]) *)
  mutable batch : Msg.t list;            (* user-side async downcalls, newest first *)
  mutable batch_len : int;               (* |batch|, so batched sends stay O(1) *)
  q_up : Sud_obs.Metrics.counter;        (* per-queue labelled counters *)
  q_down : Sud_obs.Metrics.counter;
  q_dropped : Sud_obs.Metrics.counter;
}

type t = {
  k : Kernel.t;
  sud : Cpu.cell;                        (* "kernel:sud": the channel's kernel-side work *)
  label : string;
  qs : qstate array;
  hang_timeout_ns : int;                 (* per-channel sync-upcall deadline *)
  mutable closed : bool;
  mutable next_seq : int;
  k_pending : (int, waiter) Hashtbl.t;   (* kernel sync upcalls awaiting replies *)
  u_pending : (int, waiter) Hashtbl.t;   (* user sync downcalls awaiting replies *)
  mutable handler : (queue:int -> Msg.t -> Msg.t option) option;
  um : metrics;
  (* Protocol conformance: every driver->kernel slot is stamped with the
     channel's generation epoch on marshal and adjudicated at ingress,
     in the driver's kernel entry (see {!Conformance}). *)
  epoch : int;
  conf : Conformance.t;
  (* Fault injection (lib/attacks): a wedged channel parks the driver's
     main loop; corrupt/drop counters garble or swallow the next driver
     replies at the transport, before the kernel reads them.  The
     mutator and raw injector are the live-fuzzer hooks: the former
     scribbles on each marshalled u2k slot while it is still borrowed
     (a driver corrupting traffic in flight), the latter forges whole
     slots the driver never sent. *)
  mutable wedged : bool;
  mutable corrupt_next : int;
  mutable drop_next : int;
  mutable corrupt_batch_next : int;
  mutable u2k_mutator : (queue:int -> bytes -> unit) option;
  (* Observer called on each driver-side kernel entry, before its
     drain — the quota layer hangs its notification token bucket here. *)
  mutable notify_hook : (queue:int -> unit) option;
  (* Driver-side batch accumulation threshold: how many async downcalls
     pile up on a queue before the batch ships without waiting for the
     driver's next kernel entry.  1 disables aggregation (every send
     flushes immediately — the pre-batching behaviour). *)
  mutable batch_limit : int;
}

let model t = Cpu.cost_model t.k.Kernel.cpu

(* Driver-side work and wakeups go on the running process's line; the
   kernel side of the channel (marshalling upcalls, ringing the driver,
   draining u2k) is SUD's own work, whichever fiber runs it. *)
let consume_cur t ns = Cpu.charge (Process.cell (Process.current t.k.Kernel.procs)) ns

let msg_cost t = consume_cur t (model t).Cost_model.uchan_msg_ns
let syscall_cost t = consume_cur t (model t).Cost_model.syscall_ns
let sud_msg_cost t = Cpu.charge t.sud (model t).Cost_model.uchan_msg_ns

(* Waking a task that only just blocked is a cheap runqueue operation;
   only genuine sleeps pay the full wakeup latency. *)
let wakeup_cost_since t ~since =
  if Engine.now t.k.Kernel.eng - since > 2_000 then
    consume_cur t (model t).Cost_model.wakeup_ns

(* Wake a driver fiber parked in [wait] on [q]. *)
let kick t q =
  if Sync.Waitq.waiters q.u_waitq > 0 then begin
    Sud_obs.Metrics.incr t.um.um_notify;
    Cpu.charge t.sud (model t).Cost_model.uchan_notify_ns;
    ignore (Sync.Waitq.signal q.u_waitq : bool)
  end

let fresh_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

let num_queues t = Array.length t.qs

let qstate_of t queue =
  if queue < 0 || queue >= Array.length t.qs then
    invalid_arg
      (Printf.sprintf "Uchan(%s): no queue %d (channel has %d)" t.label queue
         (Array.length t.qs));
  t.qs.(queue)

(* Marshal straight into the ring slot — no per-message 128-byte buffer.
   [mutate] (fuzzer hook) runs on the marshalled bytes while the slot is
   still borrowed, exactly as a malicious driver racing the ring would. *)
let push_flagged ?mutate ring m ~is_reply =
  let m = if is_reply then { m with Msg.kind = m.Msg.kind lor reply_flag } else m in
  Ring.push_inplace ring (fun slot ->
      Msg.marshal_into m slot;
      match mutate with Some f -> f slot | None -> ())

let complete_waiter tbl seq result =
  match Hashtbl.find_opt tbl seq with
  | None -> false
  | Some w ->
    Hashtbl.remove tbl seq;
    w.cell := Some result;
    ignore (Sync.Waitq.signal w.wq : bool);
    true

let fail_all_waiters tbl err =
  (* Fail waiters in seq order: completion signals schedule wakeup events,
     so hash-order traversal here would leak Hashtbl layout into the
     engine's event order and destabilize schedule replay. *)
  let seqs = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) tbl []) in
  List.iter (fun s -> ignore (complete_waiter tbl s (Error err) : bool)) seqs

(* ---- kernel side of a driver's entry: drain u2k, dispatching replies and downcalls ---- *)

let dispatch_u2k t q decoded =
  match decoded with
  | Error e ->
    Sud_obs.Metrics.incr t.um.um_malformed;
    Klog.printk t.k.Kernel.klog Klog.Warn "uchan(%s): malformed message from driver: %s"
      t.label e
  | Ok m ->
    (* Protocol adjudication: a well-formed slot must also be in
       protocol — live epoch, monotone seq, completion matching, kind
       legal in the channel's DFA state.  Violations are counted per
       class and the message is dropped on the floor; the supervisor
       escalates from the counters. *)
    let is_reply = m.Msg.kind land reply_flag <> 0 in
    let verdict =
      Conformance.check_ingress t.conf ~epoch:m.Msg.epoch ~is_reply ~seq:m.Msg.seq
        ~kind:(m.Msg.kind land lnot reply_flag)
        ~pending:(fun s -> Hashtbl.mem t.k_pending s)
        ~issued_hi:t.next_seq
    in
    match verdict with
    | Conformance.Violation v ->
      Klog.printk t.k.Kernel.klog
        (if Conformance.escalates v then Klog.Warn else Klog.Debug)
        "uchan(%s): protocol violation (%s) kind %d seq %d epoch %d dropped" t.label
        (Conformance.class_name v)
        (m.Msg.kind land lnot reply_flag)
        m.Msg.seq m.Msg.epoch
    | Conformance.Pass ->
    if is_reply then begin
      let m = { m with Msg.kind = m.Msg.kind land lnot reply_flag } in
      if not (complete_waiter t.k_pending m.Msg.seq (Ok m)) then
        Klog.printk t.k.Kernel.klog Klog.Debug "uchan(%s): stale reply seq %d" t.label m.Msg.seq
    end
    else begin
      match t.handler with
      | None ->
        Klog.printk t.k.Kernel.klog Klog.Warn "uchan(%s): downcall %d with no handler"
          t.label m.Msg.kind
      | Some h ->
        (* Run the handler under the issuing RPC's span, so anything it
           touches (IOMMU maps, netdev work) is causally attributed. *)
        let parent =
          if Sud_obs.Trace.on () && m.Msg.seq <> 0 then
            Sud_obs.Trace.recall (Printf.sprintf "uchan.rpc.seq:%s:%d" t.label m.Msg.seq)
          else 0
        in
        let reply =
          if parent <> 0 then
            Sud_obs.Trace.with_current parent (fun () -> h ~queue:q.qi m)
          else h ~queue:q.qi m
        in
        if m.Msg.seq <> 0 then begin
          (* Downcall results return directly into the buffer the driver
             passed to sud_send (paper §3.1), not as a separate message. *)
          let r =
            match reply with
            | Some r -> { r with Msg.seq = m.Msg.seq }
            | None -> Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ()
          in
          sud_msg_cost t;
          if not (complete_waiter t.u_pending m.Msg.seq (Ok r)) then
            Klog.printk t.k.Kernel.klog Klog.Debug "uchan(%s): stale downcall reply seq %d"
              t.label m.Msg.seq
        end
    end

(* A u2k slot is either one scalar message or a scatter-gather batch of
   same-kind async downcalls (discriminated by a magic byte the scalar
   format can never produce).  Decoded inside [Ring.pop_inplace] while
   the slot is still borrowed. *)
type u2k_slot =
  | U2k_scalar of (Msg.t, string) result
  | U2k_batch of (int * int * (int * int, string) result list, string) result

let read_u2k_slot slot =
  if Msg.Batch.is_batch slot then U2k_batch (Msg.Batch.unmarshal_view slot)
  else U2k_scalar (Msg.unmarshal_view slot)

(* Unpack a batch slot and dispatch each surviving entry as if it had
   arrived as a scalar async downcall.  Entries whose per-entry checksum
   fails are exactly the frames a malicious driver garbled: they count
   as malformed and are dropped, their siblings still deliver. *)
let dispatch_u2k_batch t q decoded =
  match decoded with
  | Error e ->
    Sud_obs.Metrics.incr t.um.um_malformed;
    Klog.printk t.k.Kernel.klog Klog.Warn "uchan(%s): malformed batch from driver: %s"
      t.label e
  | Ok (kind, epoch, entries) ->
    List.iter
      (fun entry ->
         match entry with
         | Error e ->
           (* A single garbled entry is frame-level noise, not the
              slot-level protocol violation [um_malformed] records: it
              gets its own counter so supervision policy can kill on the
              former while merely counting the latter. *)
           Sud_obs.Metrics.incr t.um.um_malformed_frames;
           Klog.printk t.k.Kernel.klog Klog.Warn
             "uchan(%s): dropping corrupt frame in batch: %s" t.label e
         | Ok (a0, a1) ->
           dispatch_u2k t q (Ok (Msg.make ~kind ~epoch ~args:[ a0; a1 ] ())))
      entries

(* Drain [q]'s u2k ring in the fiber that entered the kernel: pop a
   slot, charge it, adjudicate and dispatch it, until the ring is empty
   or the channel closes.  One charge per slot, on SUD's line; the first
   slot also pays the driver's doorbell.  Kills wait for the section's
   end, as Linux delivers SIGKILL at syscall exit, so no handler stops
   half-way; a death closes the channel, and the [closed] check at each
   slot bounds that wait to one handler.  A fiber entering while another
   drains the queue leaves its slots to that drainer, so a queue's slots
   dispatch one at a time, in ring order. *)
let drain t q =
  if not (q.draining || t.closed || Ring.is_empty q.u2k) then begin
    q.draining <- true;
    let m = model t in
    let per_slot = m.Cost_model.uchan_msg_ns + m.Cost_model.uchan_validate_ns in
    let rec go ~doorbell =
      if not t.closed then
        match Ring.pop_inplace q.u2k read_u2k_slot with
        | None -> ()
        | Some decoded ->
          if doorbell then Sud_obs.Metrics.incr t.um.um_notify;
          Cpu.charge t.sud (if doorbell then per_slot + m.Cost_model.uchan_notify_ns else per_slot);
          if Sud_obs.Trace.on () then
            ignore
              (Sud_obs.Trace.emit ~cat:"uchan" ~name:"pop"
                 ~attrs:[ "chan", t.label; "dir", "u2k"; "queue", string_of_int q.qi ] ());
          (match decoded with
           | U2k_scalar d -> dispatch_u2k t q d
           | U2k_batch d -> dispatch_u2k_batch t q d);
          go ~doorbell:false
    in
    Fun.protect ~finally:(fun () -> q.draining <- false) (fun () ->
        Fiber.defer_kill (fun () -> go ~doorbell:true))
  end

(* A driver-side entry into the kernel on [q]: the notify hook sees the
   doorbell, then the entering fiber drains u2k itself. *)
let enter t q =
  (match t.notify_hook with Some f -> f ~queue:q.qi | None -> ());
  drain t q

let create k ?(slots = 256) ?hang_timeout_ns:(hto = hang_timeout_ns) ?(queues = 1)
    ?(epoch = 0) ?profile ~driver_label () =
  if queues < 1 || queues > max_queues then
    invalid_arg "Uchan.create: queues out of range";
  let epoch = epoch land Msg.max_epoch in
  let labels = [ "chan", driver_label ] in
  let qs =
    Array.init queues (fun qi ->
        let qlabels = labels @ [ "queue", string_of_int qi ] in
        let qc name = Sud_obs.Metrics.counter ~labels:qlabels ~subsystem:"uchan" ~name () in
        { qi;
          k2u = Ring.create ~slots;
          u2k = Ring.create ~slots;
          u_waitq = Sync.Waitq.create ();
          k_space = Sync.Waitq.create ();
          draining = false;
          batch = [];
          batch_len = 0;
          q_up = qc "queue_upcalls";
          q_down = qc "queue_downcalls";
          q_dropped = qc "queue_dropped" })
  in
  let t =
    { k;
      sud = Cpu.cell k.Kernel.cpu "kernel:sud";
      label = driver_label;
      qs;
      hang_timeout_ns = hto;
      closed = false;
      next_seq = 0;
      k_pending = Hashtbl.create 16;
      u_pending = Hashtbl.create 16;
      handler = None;
      um =
        (let c name = Sud_obs.Metrics.counter ~labels ~subsystem:"uchan" ~name () in
         { um_up = c "upcalls";
           um_down = c "downcalls";
           um_notify = c "notifications";
           um_dropped = c "dropped";
           um_malformed = c "malformed";
           um_malformed_frames = c "malformed_frames";
           um_rpc_ns = Sud_obs.Metrics.histogram ~labels ~subsystem:"uchan" ~name:"rpc_ns" () });
      epoch;
      conf = Conformance.create ?profile ~label:driver_label ~epoch ();
      wedged = false;
      corrupt_next = 0;
      drop_next = 0;
      corrupt_batch_next = 0;
      u2k_mutator = None;
      notify_hook = None;
      batch_limit = default_batch_limit }
  in
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    fail_all_waiters t.k_pending Closed;
    fail_all_waiters t.u_pending Closed;
    Array.iter
      (fun q ->
         ignore (Sync.Waitq.broadcast q.u_waitq : int);
         ignore (Sync.Waitq.broadcast q.k_space : int))
      t.qs
  end

let is_closed t = t.closed

let set_downcall_handler t h = t.handler <- Some h

(* ---- kernel side ---- *)

let push_k2u t q m =
  sud_msg_cost t;
  let m = { m with Msg.epoch = t.epoch } in
  if push_flagged q.k2u m ~is_reply:false then begin
    Sud_obs.Metrics.incr t.um.um_up;
    Sud_obs.Metrics.incr q.q_up;
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"uchan" ~name:"push"
           ~attrs:[ "chan", t.label; "dir", "k2u"; "queue", string_of_int q.qi ] ());
    kick t q;
    true
  end
  else false

let rpc_issue t ~queue ~dir ~seq ~kind =
  if Sud_obs.Trace.on () then begin
    let id =
      Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"uchan" ~name:"rpc"
        ~attrs:
          [ "chan", t.label; "dir", dir; "kind", string_of_int kind;
            "seq", string_of_int seq; "queue", string_of_int queue ]
        ()
    in
    (* Correlation keys: the per-seq key lets the driver's entry run the
       downcall handler under this span; the "last" key is the fallback
       parent for faults raised from engine callbacks (device DMA). *)
    Sud_obs.Trace.remember (Printf.sprintf "uchan.rpc.seq:%s:%d" t.label seq) id;
    Sud_obs.Trace.remember "uchan.rpc.last" id;
    id
  end
  else 0

let rpc_finish t ~span ~t0 r =
  let dur = Engine.now t.k.Kernel.eng - t0 in
  Sud_obs.Metrics.observe t.um.um_rpc_ns dur;
  if span <> 0 then
    ignore
      (Sud_obs.Trace.emit ~parent:span ~dur_ns:dur ~cat:"uchan" ~name:"rpc.complete"
         ~attrs:
           [ "chan", t.label;
             "status",
             (match r with
              | Ok _ -> "ok"
              | Error Hung -> "hung"
              | Error Interrupted -> "interrupted"
              | Error Closed -> "closed") ]
         ());
  r

let call t m =
  let q = t.qs.(0) in
  if t.closed then Error Closed
  else begin
    let seq = fresh_seq t in
    let m = { m with Msg.seq } in
    let t0 = Engine.now t.k.Kernel.eng in
    let span = rpc_issue t ~queue:q.qi ~dir:"k2u" ~seq ~kind:m.Msg.kind in
    if not (push_k2u t q m) then rpc_finish t ~span ~t0 (Error Hung)
    else begin
      let w = { cell = ref None; wq = Sync.Waitq.create () } in
      Hashtbl.replace t.k_pending seq w;
      let deadline = Engine.now t.k.Kernel.eng + t.hang_timeout_ns in
      let rec await () =
        let slept_at = Engine.now t.k.Kernel.eng in
        match !(w.cell) with
        | Some r -> r
        | None ->
          if t.closed then Error Closed
          else begin
            let left = deadline - Engine.now t.k.Kernel.eng in
            if left <= 0 then begin
              Hashtbl.remove t.k_pending seq;
              Error Hung
            end
            else
              match Sync.Waitq.wait_timeout t.k.Kernel.eng w.wq left with
              | Fiber.Interrupted ->
                (match !(w.cell) with
                 | Some r -> r
                 | None ->
                   Hashtbl.remove t.k_pending seq;
                   Error Interrupted)
              | Fiber.Normal ->
                wakeup_cost_since t ~since:slept_at;
                await ()
              | Fiber.Timeout -> await ()
          end
      in
      rpc_finish t ~span ~t0 (await ())
    end
  end

let post ?(queue = 0) t m =
  let q = qstate_of t queue in
  if t.closed then Error Closed
  else begin
    let m = { m with Msg.seq = 0 } in
    let deadline = Engine.now t.k.Kernel.eng + full_grace_ns in
    let rec attempt () =
      if push_k2u t q m then Ok ()
      else if t.closed then Error Closed
      else if Engine.now t.k.Kernel.eng >= deadline then Error Hung
      else
        match
          Sync.Waitq.wait_timeout t.k.Kernel.eng q.k_space
            (deadline - Engine.now t.k.Kernel.eng)
        with
        | Fiber.Interrupted -> Error Interrupted
        | Fiber.Normal | Fiber.Timeout -> attempt ()
    in
    attempt ()
  end

(* Non-blocking async upcall for interrupt context: a full ring just
   drops the kick (the interrupt is edge-triggered and SUD masks until
   the driver acks anyway). *)
let post_nonblock ?(queue = 0) t m =
  let q = qstate_of t queue in
  if t.closed then false
  else push_k2u t q { m with Msg.seq = 0 }

(* ---- user (driver) side ---- *)

let u2k_mutate t q =
  match t.u2k_mutator with
  | None -> None
  | Some f -> Some (fun slot -> f ~queue:q.qi slot)

let push_u2k_raw t q m ~is_reply =
  msg_cost t;
  (* Stamp the live generation epoch into every marshalled header: the
     kernel-side adjudicator rejects anything else. *)
  let m = { m with Msg.epoch = t.epoch } in
  if is_reply && t.drop_next > 0 then begin
    (* Injected fault: the reply evaporates in transit.  The driver
       believes it answered; the kernel's sync send times out Hung. *)
    t.drop_next <- t.drop_next - 1;
    true
  end
  else if is_reply && t.corrupt_next > 0 then begin
    (* Injected fault: garble the slot.  0xFF everywhere guarantees the
       kernel's unmarshal rejects it (arg count out of range). *)
    t.corrupt_next <- t.corrupt_next - 1;
    ignore
      (Ring.push_inplace q.u2k (fun slot -> Bytes.fill slot 0 (Bytes.length slot) '\xff')
       : bool);
    true
  end
  else if push_flagged ?mutate:(u2k_mutate t q) q.u2k m ~is_reply then begin
    if not is_reply then begin
      Sud_obs.Metrics.incr t.um.um_down;
      Sud_obs.Metrics.incr q.q_down;
      if Sud_obs.Trace.on () then
        ignore
          (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"uchan" ~name:"push"
             ~attrs:[ "chan", t.label; "dir", "u2k"; "queue", string_of_int q.qi ] ())
    end;
    true
  end
  else false

(* Push one marshalled batch slot carrying [ms] (send order, all the
   same kind, each satisfying [Msg.Batch.fits]).  One message charge
   covers the whole slot — this is where batching amortizes the
   per-frame boundary cost. *)
let push_u2k_batch t q ~kind ms =
  msg_cost t;
  let entries = Array.of_list (List.map (fun m -> (Msg.arg m 0, Msg.arg m 1)) ms) in
  let n = Array.length entries in
  let corrupt =
    if t.corrupt_batch_next > 0 then begin
      t.corrupt_batch_next <- t.corrupt_batch_next - 1;
      true
    end
    else false
  in
  if
    Ring.push_inplace q.u2k (fun slot ->
        Msg.Batch.marshal_into ~epoch:t.epoch ~kind entries slot;
        (* Injected fault: garble the last frame of the batch after
           marshalling, as a driver scribbling on the shared ring would. *)
        if corrupt then Msg.Batch.corrupt_entry slot (n - 1);
        match u2k_mutate t q with Some f -> f slot | None -> ())
  then begin
    Sud_obs.Metrics.add t.um.um_down n;
    Sud_obs.Metrics.add q.q_down n;
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"uchan"
           ~name:"push.batch"
           ~attrs:
             [ "chan", t.label; "dir", "u2k"; "queue", string_of_int q.qi;
               "frames", string_of_int n ] ());
    true
  end
  else false

(* Push [q]'s batch onto u2k; the caller's kernel entry then drains it. *)
let ship t q =
  match q.batch with
  | [] -> ()
  | batch ->
    q.batch <- [];
    q.batch_len <- 0;
    let drop n =
      (* Every entry drains the ring, so a full one means another fiber
         of the driver is draining it and has not caught up — drop
         oldest-first like a NIC, but count the loss so it shows up
         next to the send counters. *)
      Sud_obs.Metrics.add t.um.um_dropped n;
      Sud_obs.Metrics.add q.q_dropped n
    in
    let send_scalar m =
      if not (push_u2k_raw t q m ~is_reply:false) then drop 1
    in
    (* Ship an accumulated run.  Singletons go out as scalar slots (no
       batch framing overhead, and batch_limit = 1 exactly reproduces
       the pre-batching wire traffic). *)
    let ship_run run_rev nrun =
      match run_rev with
      | [] -> ()
      | [ m ] -> send_scalar m
      | _ ->
        let run = List.rev run_rev in
        let kind = (List.hd run).Msg.kind in
        if not (push_u2k_batch t q ~kind run) then drop nrun
    in
    (* Coalesce consecutive same-kind batchable messages into batch
       slots (one marshal + one message charge per slot); anything else
       goes out as a scalar slot.  Send order is preserved throughout. *)
    let rec go run_rev nrun ms =
      match ms with
      | [] -> ship_run run_rev nrun
      | m :: rest when Msg.Batch.fits m ->
        (match run_rev with
         | p :: _ when p.Msg.kind = m.Msg.kind && nrun < Msg.Batch.max_frames ->
           go (m :: run_rev) (nrun + 1) rest
         | [] -> go [ m ] 1 rest
         | _ ->
           ship_run run_rev nrun;
           go [ m ] 1 rest)
      | m :: rest ->
        ship_run run_rev nrun;
        send_scalar m;
        go [] 0 rest
    in
    go [] 0 (List.rev batch)

(* Ship the batch in a kernel entry of its own: [wait]'s flush, a
   batch-limit flush, or {!flush}. *)
let flush_queue t q =
  if q.batch_len > 0 then begin
    ship t q;
    enter t q
  end

let flush ?queue t =
  match queue with
  | Some qi -> flush_queue t (qstate_of t qi)
  | None -> Array.iter (fun q -> flush_queue t q) t.qs

let downcall_batched ?(queue = 0) t m =
  let q = qstate_of t queue in
  if not t.closed then begin
    q.batch <- { m with Msg.seq = 0 } :: q.batch;
    q.batch_len <- q.batch_len + 1;
    (* Batching waits for the driver's next entry into the kernel — but a
       main loop already parked inside sud_wait counts as being there, so
       ship the batch now rather than stranding it. *)
    if q.batch_len >= t.batch_limit || Sync.Waitq.waiters q.u_waitq > 0 then flush_queue t q
  end

let reply ?(queue = 0) t m =
  let q = qstate_of t queue in
  if not t.closed then begin
    ship t q;   (* preserve ordering of async downcalls vs. this reply *)
    ignore (push_u2k_raw t q m ~is_reply:true : bool);
    enter t q
  end

let downcall t m =
  let q = t.qs.(0) in
  if t.closed then Error Closed
  else begin
    ship t q;
    let seq = fresh_seq t in
    let m = { m with Msg.seq } in
    let t0 = Engine.now t.k.Kernel.eng in
    let span = rpc_issue t ~queue:q.qi ~dir:"u2k" ~seq ~kind:m.Msg.kind in
    let pushed = push_u2k_raw t q m ~is_reply:false in
    let w = { cell = ref None; wq = Sync.Waitq.create () } in
    (* Registered before this entry's drain, which may run the downcall's
       handler and complete the waiter before [await] looks at it. *)
    if pushed then Hashtbl.replace t.u_pending seq w;
    enter t q;
    if not pushed then rpc_finish t ~span ~t0 (Error Hung)
    else begin
      let rec await () =
        match !(w.cell) with
        | Some r -> r
        | None ->
          if t.closed then Error Closed
          else begin
            let since = Engine.now t.k.Kernel.eng in
            match Sync.Waitq.wait w.wq with
            | Fiber.Interrupted ->
              Hashtbl.remove t.u_pending seq;
              Error Interrupted
            | Fiber.Normal | Fiber.Timeout ->
              wakeup_cost_since t ~since;
              await ()
          end
      in
      rpc_finish t ~span ~t0 (await ())
    end
  end

let wait ?(queue = 0) t =
  let q = qstate_of t queue in
  let rec loop ~slept =
    if t.closed then Error Closed
    else if t.wedged then begin
      (* Injected fault: the driver main loop is wedged — it neither
         services the ring nor flushes batches until the wedge lifts or
         the process is killed out from under it. *)
      ignore (Sync.Waitq.wait_timeout t.k.Kernel.eng q.u_waitq 1_000_000 : Fiber.wake);
      loop ~slept
    end
    else begin
      flush_queue t q;
      match Ring.pop_inplace q.k2u Msg.unmarshal_view with
      | Some decoded ->
        (match slept with Some since -> wakeup_cost_since t ~since | None -> ());
        msg_cost t;
        if Sud_obs.Trace.on () then
          ignore
            (Sud_obs.Trace.emit ~cat:"uchan" ~name:"pop"
               ~attrs:[ "chan", t.label; "dir", "k2u"; "queue", string_of_int q.qi ] ());
        ignore (Sync.Waitq.signal q.k_space : bool);
        (match decoded with
         | Error _ ->
           (* Only the trusted kernel writes k2u; treat corruption as fatal. *)
           Error Closed
         | Ok m ->
           if m.Msg.kind land reply_flag <> 0 then begin
             let m = { m with Msg.kind = m.Msg.kind land lnot reply_flag } in
             ignore (complete_waiter t.u_pending m.Msg.seq (Ok m) : bool);
             loop ~slept:None
           end
           else Ok m)
      | None ->
        syscall_cost t;
        (* The cost charge suspends the fiber; a message may have arrived in
           the meantime and its kick found nobody waiting — re-check before
           parking, or the wakeup is lost. *)
        if not (Ring.is_empty q.k2u) then loop ~slept:None
        else begin
          let since = Engine.now t.k.Kernel.eng in
          match Sync.Waitq.wait q.u_waitq with
          | Fiber.Interrupted -> Error Interrupted
          | Fiber.Normal | Fiber.Timeout -> loop ~slept:(Some since)
        end
    end
  in
  loop ~slept:None

let pending ?(queue = 0) t = not (Ring.is_empty (qstate_of t queue).k2u)

let metrics t = t.um
let epoch t = t.epoch
let conformance t = t.conf
let proto_violations t = Conformance.violations t.conf

(* ---- fault injection (lib/attacks) ---- *)

let wedge t =
  t.wedged <- true

let inject_corrupt_replies t n = t.corrupt_next <- t.corrupt_next + n
let inject_drop_replies t n = t.drop_next <- t.drop_next + n
let inject_corrupt_batch_frames t n = t.corrupt_batch_next <- t.corrupt_batch_next + n
let armed_corruptions t = t.corrupt_next + t.corrupt_batch_next

(* Live-fuzzer hooks (lib/attacks/proto_fuzz): mutate marshalled u2k
   slots in flight, or forge whole slots the driver never sent. *)
let set_u2k_mutator t f = t.u2k_mutator <- f

let inject_raw t writer =
  let q = qstate_of t 0 in
  if t.closed then false
  else begin
    let pushed = Ring.push_inplace q.u2k writer in
    if pushed then enter t q;
    pushed
  end

(* A doorbell flood: enter the kernel on queue 0 [n] times with no slots
   behind the entries.  Each entry passes through the notify hook, so
   the quota layer's token bucket sees (and counts) the storm; each
   drain just finds the ring empty. *)
let notify_storm t n =
  let q = qstate_of t 0 in
  if not t.closed then
    for _ = 1 to n do
      enter t q
    done

(* Quota layer: observe driver-side kernel entries (notification bucket). *)
let set_notify_hook t f = t.notify_hook <- f

(* ---- batch tuning ---- *)

let set_batch_limit t n = t.batch_limit <- max 1 n
