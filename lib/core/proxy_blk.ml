(* The kernel block proxy (sud-blk): Blkdev requests -> up_blk_submit
   upcalls, down_blk_complete downcalls -> Blkdev completions.

   Crash consistency is the point of this module.  Every request carries
   a monotonically increasing idempotency tag that survives driver
   generations in the [persist] record, together with:

   - the in-flight table (submitted, not yet completed), and
   - the unflushed-retention list: completed writes whose durability has
     not yet been proven by a Flush completion.  Their data lives in the
     kernel-private request record, never only in driver memory.

   On recovery the fresh generation replays, in tag order, everything
   retained plus everything still in flight, then issues a trailing
   barrier.  [Blkdev.complete] fires each upstream completion at most
   once, so a replayed request that was already acknowledged cannot
   double-complete — replay is idempotent end to end, which is exactly
   the invariant the soak harness checks: no acknowledged write is ever
   lost, and no unacknowledged write becomes visible without being
   acknowledged.

   Retention is dropped only under the flush-covering rule: a Flush
   completion F drops a retained write W iff W completed before F was
   submitted AND no in-flight request has a tag older than F.  The
   second clause defends against forged completions — the device
   processes each queue FIFO, so a corrupted completion id can only
   falsely acknowledge a request *newer* than the true victim; the
   victim stays in flight with an older tag and blocks the drop until
   its timeout triggers recovery and replay. *)

type breq = {
  br_tag : int;
  br_op : int;                       (* wire op, FUA bit included *)
  br_lba : int;
  br_count : int;
  br_req : Blkdev.request option;    (* None: proxy-internal barrier *)
  mutable br_buf : int;              (* pool buffer id this generation; -1 = none *)
  mutable br_sent : bool;            (* on the wire this generation *)
  mutable br_submit_ns : int;
  mutable br_serial : int;           (* completion-order stamp; -1 = in flight *)
  br_cover : int;            (* flushes: completion serial at submit *)
}

(* Driver-generation-independent state, adopted by each restart. *)
type persist = {
  mutable p_next_tag : int;
  p_inflight : (int, breq) Hashtbl.t;
  mutable p_unflushed : breq list;   (* newest first *)
  mutable p_serial : int;
  mutable p_blkdev : Blkdev.t option;
  mutable p_replay_flush : bool;     (* trailing barrier owed after replay *)
}

let persist_create () =
  { p_next_tag = 0;
    p_inflight = Hashtbl.create 64;
    p_unflushed = [];
    p_serial = 0;
    p_blkdev = None;
    p_replay_flush = false }

let persist_blkdev p = p.p_blkdev
let persist_inflight p = Hashtbl.length p.p_inflight
let persist_retained p = List.length p.p_unflushed

type t = {
  k : Kernel.t;
  sud : Cpu.cell;  (* "kernel:sud", the ledger line of SUD's kernel-side work *)
  chan : Uchan.t;
  grant : Safe_pci.grant;
  pool : Bufpool.t;
  name : string;
  p : persist;
  ready : Sync.Waitq.t;
  mutable nqueues : int;             (* device queues; 0 until registered *)
  mutable is_hung : bool;
  mutable quiescing : bool;
  (* Submissions on the wire this generation (sent, not yet completed).
     A flush is held until this drains to zero: rings are per-LBA, so a
     flush racing an in-flight write on another ring could be processed
     first and certify nothing.  Blkdev's own barrier guarantees this in
     normal operation; replay bypasses Blkdev and needs it here. *)
  mutable on_wire : int;
  (* Send-retry FIFO: submissions the channel or pool refused.  Strictly
     ordered — nothing overtakes a parked request — and per generation:
     membership in [p_inflight] is the replay source of truth. *)
  pending : breq Queue.t;
  (* Set while one fiber drains [pending].  A send suspends for its CPU
     charge before the head is popped, so a second drainer would send
     that head again and then pop a request it never sent. *)
  mutable draining : bool;
  m_submits : Sud_obs.Metrics.counter;
  m_replays : Sud_obs.Metrics.counter;
  m_stale : Sud_obs.Metrics.counter;
  m_covered_drops : Sud_obs.Metrics.counter;
  m_cover_blocked : Sud_obs.Metrics.counter;
}

let model t = Cpu.cost_model t.k.Kernel.cpu

let klogf t lvl fmt = Klog.printk t.k.Kernel.klog lvl fmt

let mark_hung t why =
  if not t.is_hung then begin
    t.is_hung <- true;
    klogf t Klog.Warn "sud-blk(%s): driver appears hung (%s)" t.name why
  end

let base_op op = op land lnot Proxy_proto.blk_op_fua

let wire_op (rq : Blkdev.request) =
  match rq.Blkdev.rq_op with
  | Blkdev.Read -> Proxy_proto.blk_op_read
  | Blkdev.Write ->
    Proxy_proto.blk_op_write
    lor (if rq.Blkdev.rq_fua then Proxy_proto.blk_op_fua else 0)
  | Blkdev.Flush -> Proxy_proto.blk_op_flush

let is_write br = base_op br.br_op = Proxy_proto.blk_op_write
let is_flush br = base_op br.br_op = Proxy_proto.blk_op_flush

(* Queue affinity: all requests touching an LBA ride the ring picked by
   its page, preserving per-page order end to end; barriers ride ring 0. *)
let queue_of t br =
  if is_flush br then 0
  else (br.br_lba / Blkdev.page_sectors) mod Uchan.num_queues t.chan

(* Push one submission at the driver.  The caller owns ordering, except
   the flush barrier: [`Barrier] parks a flush until the wire drains. *)
let send_submit t br =
  if is_flush br && t.on_wire > 0 then `Barrier
  else
  let buf1 =
    if is_flush br then Some 0
    else
      match Bufpool.alloc t.pool with
      | None -> None
      | Some buf ->
        let len = br.br_count * Blkdev.sector_size in
        if len > buf.Bufpool.size then begin
          Bufpool.free t.pool buf.Bufpool.id;
          klogf t Klog.Warn "sud-blk(%s): request of %d sectors exceeds pool buffers"
            t.name br.br_count;
          None
        end
        else begin
          (if is_write br then
             match br.br_req with
             | Some rq ->
               (* The single data copy on the write path: kernel-private
                  request bytes -> shared buffer.  The retained copy in
                  [rq_data] is what replay re-sends after a crash. *)
               Cpu.charge t.sud
                 (Cost_model.copy_cost (model t) ~bytes:(Bytes.length rq.Blkdev.rq_data));
               Bufpool.write t.pool buf
                 ~off:(Bufpool.request_addr buf ~len - buf.Bufpool.addr)
                 rq.Blkdev.rq_data
             | None -> ());
          br.br_buf <- buf.Bufpool.id;
          Some (buf.Bufpool.id + 1)
        end
  in
  match buf1 with
  | None -> `No_buf
  | Some buf1 ->
    br.br_submit_ns <- Engine.now t.k.Kernel.eng;
    (* A completion's [drain_pending] sends from inside the driver's own
       kernel entry, where waiting for k2u space would wait on the very
       driver fiber that is running it.  It never waits: every
       submission holds a pool buffer (64 of them) until it completes
       and a flush goes out only on an empty wire, so at most 65
       submissions, plus an interrupt kick per queue, share the 256
       slots of a ring. *)
    (match
       Uchan.post ~queue:(queue_of t br) t.chan
         (Msg.make ~kind:Proxy_proto.up_blk_submit
            ~args:[ br.br_tag; br.br_op; br.br_lba; br.br_count; buf1 ] ())
     with
     | Ok () ->
       t.on_wire <- t.on_wire + 1;
       br.br_sent <- true;
       Sud_obs.Metrics.incr t.m_submits;
       `Ok
     | Error Uchan.Hung ->
       if br.br_buf >= 0 then begin
         Bufpool.free t.pool br.br_buf;
         br.br_buf <- -1
       end;
       mark_hung t "submission ring stalled";
       `Err
     | Error (Uchan.Interrupted | Uchan.Closed) ->
       if br.br_buf >= 0 then begin
         Bufpool.free t.pool br.br_buf;
         br.br_buf <- -1
       end;
       `Err)

(* A completion that finds the queue being drained leaves it to the
   drainer, which tries its next head after each send returns, so a
   buffer or barrier released meanwhile is not missed. *)
let drain_pending t =
  if not t.draining then begin
    t.draining <- true;
    let rec go () =
      match Queue.peek_opt t.pending with
      | None -> ()
      | Some br ->
        (match send_submit t br with
         | `Ok ->
           ignore (Queue.pop t.pending : breq);
           go ()
         | `No_buf | `Err | `Barrier -> ())
    in
    Fun.protect ~finally:(fun () -> t.draining <- false) go
  end

(* Submit, or park behind anything already parked: ordering first. *)
let enqueue_or_send t br =
  if not (Queue.is_empty t.pending) then Queue.add br t.pending
  else
    match send_submit t br with
    | `Ok -> ()
    | `No_buf | `Err | `Barrier -> Queue.add br t.pending

let fresh_tag t =
  let tag = t.p.p_next_tag in
  t.p.p_next_tag <- tag + 1;
  tag

(* The issuer installed via Blkdev.attach. *)
let issue t (rq : Blkdev.request) =
  let op = wire_op rq in
  let br =
    { br_tag = fresh_tag t;
      br_op = op;
      br_lba = rq.Blkdev.rq_lba;
      br_count = rq.Blkdev.rq_count;
      br_req = Some rq;
      br_buf = -1;
      br_sent = false;
      br_submit_ns = Engine.now t.k.Kernel.eng;
      br_serial = -1;
      br_cover = (if base_op op = Proxy_proto.blk_op_flush then t.p.p_serial else 0) }
  in
  Hashtbl.replace t.p.p_inflight br.br_tag br;
  enqueue_or_send t br

(* Trailing barrier after a replay: issued only once every replayed (and
   subsequent) request has drained, so it covers the whole replay set. *)
let maybe_replay_flush t =
  if
    t.p.p_replay_flush && not t.quiescing
    && Hashtbl.length t.p.p_inflight = 0
    && Queue.is_empty t.pending
  then begin
    t.p.p_replay_flush <- false;
    let br =
      { br_tag = fresh_tag t;
        br_op = Proxy_proto.blk_op_flush;
        br_lba = 0;
        br_count = 0;
        br_req = None;
        br_buf = -1;
        br_sent = false;
        br_submit_ns = Engine.now t.k.Kernel.eng;
        br_serial = -1;
        br_cover = t.p.p_serial }
    in
    Hashtbl.replace t.p.p_inflight br.br_tag br;
    enqueue_or_send t br
  end

let oldest_inflight_tag t =
  Hashtbl.fold (fun tag _ acc -> min tag acc) t.p.p_inflight max_int

(* The status a read completes with when its bytes never reached the
   request: NVMe's generic "Data Transfer Error". *)
let status_data_transfer_error = 0x4

let handle_complete t m =
  let tag = Msg.arg m 0 and status = Msg.arg m 1 in
  match Hashtbl.find_opt t.p.p_inflight tag with
  | None ->
    (* Unknown or already-completed tag: a stale or forged completion.
       Nothing to acknowledge; count it and move on. *)
    Sud_obs.Metrics.incr t.m_stale
  | Some br when not br.br_sent ->
    (* In flight but never sent this generation (queued behind a
       refused send, or left by a dead generation for the replay): the
       driver cannot legitimately know this tag — forged. *)
    Sud_obs.Metrics.incr t.m_stale
  | Some br ->
    Hashtbl.remove t.p.p_inflight tag;
    t.on_wire <- t.on_wire - 1;
    t.p.p_serial <- t.p.p_serial + 1;
    br.br_serial <- t.p.p_serial;
    (* Defensive copy on the read path: shared buffer -> kernel-private
       request bytes, before the buffer goes back to the pool.  The
       driver cannot rewrite data the cache already accepted.  A read
       whose bytes cannot be copied (a revoked grant took the pool with
       it, before or during the copy's charge, or the pool no longer
       knows the buffer) fails, so the cache never takes a page nobody
       filled. *)
    let status =
      match br.br_req with
      | Some rq when base_op br.br_op = Proxy_proto.blk_op_read && status = 0 ->
        (match Bufpool.get t.pool br.br_buf with
         | Some buf when Safe_pci.grant_alive t.grant ->
           let len = min (br.br_count * Blkdev.sector_size) (Bytes.length rq.Blkdev.rq_data) in
           Cpu.charge t.sud (Cost_model.copy_cost (model t) ~bytes:len);
           (match
              Safe_pci.read_driver_mem_into t.grant
                ~iova:(Bufpool.request_addr buf ~len:(br.br_count * Blkdev.sector_size))
                ~len ~dst:rq.Blkdev.rq_data ~dst_off:0
            with
            | Ok () -> status
            | Error e ->
              klogf t Klog.Warn "sud-blk(%s): read completion: %s" t.name e;
              status_data_transfer_error)
         | Some _ | None -> status_data_transfer_error)
      | Some _ | None -> status
    in
    if br.br_buf >= 0 then begin
      Bufpool.free t.pool br.br_buf;
      br.br_buf <- -1
    end;
    (* Retain completed non-FUA writes until a flush proves them durable. *)
    if is_write br && br.br_op land Proxy_proto.blk_op_fua = 0 && status = 0 then
      t.p.p_unflushed <- br :: t.p.p_unflushed;
    (* Flush covering. *)
    (if is_flush br && status = 0 then
       if oldest_inflight_tag t > br.br_tag then begin
         let keep, drop =
           List.partition (fun w -> w.br_serial > br.br_cover) t.p.p_unflushed
         in
         t.p.p_unflushed <- keep;
         Sud_obs.Metrics.add t.m_covered_drops (List.length drop)
       end
       else
         (* An older request is still in flight: this flush completion
            cannot be trusted to cover anything (forged-completion
            defense) — keep the retention. *)
         Sud_obs.Metrics.incr t.m_cover_blocked);
    (match br.br_req with
     | Some rq -> Blkdev.complete rq ~status
     | None -> ());
    drain_pending t;
    maybe_replay_flush t

let attach_issuer t bd = Blkdev.attach bd (fun rq -> issue t rq)

let handle_register t m =
  if t.nqueues > 0 then Some (Msg.make ~kind:Proxy_proto.down_blkdev_register ~args:[ 1 ] ())
  else begin
    let capacity = Msg.arg m 0 and nq = max 1 (Msg.arg m 1) in
    if Sud_obs.Trace.on () then
      ignore
        (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"proxy" ~name:"register"
           ~attrs:[ "driver", t.name; "class", "blk" ] ());
    t.nqueues <- nq;
    let bd, created =
      match t.p.p_blkdev with
      | Some bd ->
        (* Supervised restart, cold or warm: the blkdev (cache, staging
           queue, waiting readers) survived the previous generation's
           death. *)
        Blkdev.set_capacity bd capacity;
        (bd, false)
      | None ->
        let bd = Blkdev.create ~eng:t.k.Kernel.eng ~name:t.name ~capacity () in
        t.p.p_blkdev <- Some bd;
        (bd, true)
    in
    if Blkdev.find t.k.Kernel.blk t.name = None then Blkdev.register t.k.Kernel.blk bd;
    (* A blkdev this registration created serves straight away.  A
       surviving one stays detached until [resume] has replayed, even
       with nothing to replay: staged requests attached now would go out
       on this wire and then again in the replay of the in-flight set. *)
    if created then attach_issuer t bd;
    ignore (Sync.Waitq.broadcast t.ready : int);
    Some (Msg.make ~kind:Proxy_proto.down_blkdev_register ~args:[ 0 ] ())
  end

let handle_downcall t ~queue:_ m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.down_blk_complete then begin
    handle_complete t m;
    None
  end
  else if kind = Proxy_proto.down_blkdev_register then handle_register t m
  else Proxy_class.downcall t.k t.grant ~cls:"blk" ~name:t.name m

let create k ~chan ~grant ~pool ~name ?adopt () =
  let p = match adopt with Some p -> p | None -> persist_create () in
  (* The previous generation's wire died with it: no request it left in
     flight is this generation's to complete until [resume] sends it. *)
  Hashtbl.iter (fun _ br -> br.br_sent <- false) p.p_inflight;
  let t =
    { k;
      sud = Cpu.cell k.Kernel.cpu "kernel:sud";
      chan;
      grant;
      pool;
      name;
      p;
      ready = Sync.Waitq.create ();
      nqueues = 0;
      is_hung = false;
      quiescing = false;
      on_wire = 0;
      pending = Queue.create ();
      draining = false;
      m_submits =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"blk_submits" ();
      m_replays =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"blk_replays" ();
      m_stale =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"blk_stale_completions" ();
      m_covered_drops =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"blk_covered_drops" ();
      m_cover_blocked =
        Sud_obs.Metrics.counter ~labels:[ "driver", name ] ~subsystem:"proxy"
          ~name:"blk_cover_blocked" () }
  in
  Uchan.set_downcall_handler chan (fun ~queue m -> handle_downcall t ~queue m);
  t

let blkdev t = t.p.p_blkdev
let inflight t = Hashtbl.length t.p.p_inflight
let retained t = List.length t.p.p_unflushed

let inflight_flush t =
  Hashtbl.fold (fun _ br acc -> acc || is_flush br) t.p.p_inflight false

(* One line per in-flight request, oldest first — sudctl blk status and
   harness diagnostics. *)
let inflight_summary t =
  let now = Engine.now t.k.Kernel.eng in
  let rows = Hashtbl.fold (fun _ br acc -> br :: acc) t.p.p_inflight [] in
  let rows = List.sort (fun a b -> compare a.br_tag b.br_tag) rows in
  String.concat "\n"
    (List.map
       (fun br ->
          Printf.sprintf "tag %d op %d lba %d count %d sent %b buf %d age %d us"
            br.br_tag br.br_op br.br_lba br.br_count br.br_sent br.br_buf
            ((now - br.br_submit_ns) / 1_000))
       rows)
  ^ Printf.sprintf "\npending %d on_wire %d quiescing %b is_hung %b"
      (Queue.length t.pending) t.on_wire t.quiescing t.is_hung

let wait_registered t ~timeout_ns =
  Sync.Waitq.await t.k.Kernel.eng t.ready ~timeout_ns (fun () -> t.nqueues > 0) = Fiber.Normal

let request_timeout_ns = 10_000_000

(* Hung when the sync path said so, or when the oldest in-flight request
   outlived the request timeout — the escalation path for dropped and
   corrupted completions and for dropped flushes, none of which produce
   any other signal. *)
let hung t =
  t.is_hung
  || (not t.quiescing)
     &&
     let now = Engine.now t.k.Kernel.eng in
     Hashtbl.fold
       (fun _ br acc -> acc || now - br.br_submit_ns > request_timeout_ns)
       t.p.p_inflight false

let quiesce t =
  t.quiescing <- true;
  match t.p.p_blkdev with
  | Some bd -> if Blkdev.attached bd then Blkdev.detach bd
  | None -> ()

(* Called on the NEW generation after a supervised restart: replay the
   retention and the in-flight set in tag order on the fresh channel,
   owe a trailing barrier, then reattach the device so staged requests
   follow the replay. *)
let resume t =
  t.quiescing <- false;
  match t.p.p_blkdev with
  | None -> ()
  | Some bd ->
    let retained = t.p.p_unflushed in
    t.p.p_unflushed <- [];
    List.iter (fun br -> Hashtbl.replace t.p.p_inflight br.br_tag br) retained;
    let all = Hashtbl.fold (fun _ br acc -> br :: acc) t.p.p_inflight [] in
    let all = List.sort (fun a b -> compare a.br_tag b.br_tag) all in
    List.iter
      (fun br ->
         br.br_buf <- -1;          (* the old generation's pool is gone *)
         br.br_sent <- false;      (* and its wire died with it *)
         br.br_serial <- -1;
         Sud_obs.Metrics.incr t.m_replays;
         enqueue_or_send t br)
      all;
    if List.exists is_write all then t.p.p_replay_flush <- true;
    if all <> [] then
      klogf t Klog.Info "sud-blk(%s): replayed %d request%s after restart" t.name
        (List.length all)
        (if List.length all = 1 then "" else "s");
    attach_issuer t bd;
    maybe_replay_flush t

let instance t =
  { Proxy_class.chan = t.chan;
    hung = (fun () -> hung t);
    quiesce = (fun () -> quiesce t);
    resume = (fun () -> resume t) }
