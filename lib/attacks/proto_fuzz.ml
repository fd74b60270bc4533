(* Live Byzantine protocol fuzzer for the uchan interface.

   Scenarios show a handful of handwritten attacks contained once; this
   module drives a *real* driver (honest E1000 under supervision, live
   UDP traffic) while a seeded mutation engine sits between it and the
   kernel side of its entries, garbling marshalled u2k slots in flight
   ([Uchan.set_u2k_mutator]), forging slots the driver never sent
   ([Uchan.inject_raw]) and hammering the doorbell
   ([Uchan.notify_storm]).  Every mutation class maps onto a specific
   detector — a {!Conformance} violation class, the defensive
   unmarshaller's [um_malformed], or the {!Quota} notification bucket —
   and the campaign asserts that each class was detected at least once
   and that the soak containment invariants (kernel secret intact, grant
   revoked, no stale IOTLB translation) held across every one of the
   driver deaths the mutations provoked.  All randomness comes from one
   seed, so a failing campaign replays exactly. *)

type mutation =
  | Kind_swap          (* rewrite the kind field to a wild opcode *)
  | Seq_skew           (* replay an old seq / invent one from the future *)
  | Stale_epoch        (* stamp the slot with a dead generation's epoch *)
  | Len_bomb           (* payload-length / batch-count field past the slot *)
  | Completion_forge   (* forge a reply to an RPC the kernel never issued *)
  | Notify_flood       (* doorbell storm with nothing behind the kicks *)

let all_mutations =
  [ Kind_swap; Seq_skew; Stale_epoch; Len_bomb; Completion_forge; Notify_flood ]

let mutation_name = function
  | Kind_swap -> "kind_swap"
  | Seq_skew -> "seq_skew"
  | Stale_epoch -> "stale_epoch"
  | Len_bomb -> "len_bomb"
  | Completion_forge -> "completion_forge"
  | Notify_flood -> "notify_flood"

(* The wire facts the mutators exploit, as a malicious driver would read
   them off the shared ring: scalar slots carry kind(u16)@0, seq(u32)@2,
   plen(u8)@11, epoch(u16)@12; batch slots carry kind(u16)@0,
   count(u8)@2, epoch(u16)@3; replies are flagged by kind bit 15. *)
let off_kind = 0
let off_seq = 2
let off_plen = 11
let off_epoch = 12
let off_batch_count = 2
let off_batch_epoch = 3
let wire_reply_flag = 0x8000
let wild_kind = 0xEE       (* outside every proxy class's vocabulary *)
let control_kind = 104     (* down_carrier: Control in the proxy DFA *)
let future_seq = 0x3FFFFFF

(* ---- in-flight slot mutators ---- *)

(* Force the slot into a deterministic detector: for seq/kind games the
   seq (and reply flag) must not trip an earlier check first, so the
   mutator rewrites both fields together. *)

let mut_kind_swap slot =
  (* Works on scalar and batch slots alike (the kind sits at offset 0 in
     both): the adjudicator classifies 0xEE as Unknown_kind. *)
  Bytes.set_uint16_le slot off_kind wild_kind;
  if not (Msg.Batch.is_batch slot) then Bytes.set_int32_le slot off_seq 0l

let mut_seq_skew ~future slot =
  (* Scalar only: turn the slot into a non-reply Control downcall whose
     seq is either far above the issue high-water mark (Seq_from_future)
     or replays seq 1 (Nonmonotone_seq once any sync downcall has been
     accepted; also Seq_from_future on a virgin channel). *)
  Bytes.set_uint16_le slot off_kind control_kind;
  Bytes.set_int32_le slot off_seq (Int32.of_int (if future then future_seq else 1))

let mut_stale_epoch slot =
  let off = if Msg.Batch.is_batch slot then off_batch_epoch else off_epoch in
  Bytes.set_uint16_le slot off ((Bytes.get_uint16_le slot off + 0x1111) land Msg.max_epoch)

let mut_len_bomb slot =
  if Msg.Batch.is_batch slot then
    (* Wild frame count: the defensive batch decode rejects the slot. *)
    Bytes.set_uint8 slot off_batch_count 0xFF
  else
    (* Payload length reaching past the slot: unmarshal_view rejects. *)
    Bytes.set_uint8 slot off_plen 0xFF

(* ---- campaign ---- *)

type fuzz_report = {
  fz_seed : int64;
  fz_planned : int;
  fz_applied : int;
  fz_skipped : int;
  fz_by_class : (string * int) list;
  fz_detected : (string * int) list;
  fz_detections : int;
  fz_restarts : int;
  fz_deaths : int;
  fz_state : Supervisor.state;
  fz_violations : string list;
  fz_sched : Fault_inject.sched_summary;
}

let count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

(* What "this mutation class was detected" means, given the evidence
   tallied over every generation's channel.  Seq skew legitimately lands
   as either seq violation class depending on channel history;
   everything else is one-to-one. *)
let detected_count (ct : Fault_inject.chan_tally) ~overflows = function
  | Kind_swap -> get ct.ct_conf "unknown_kind"
  | Seq_skew -> get ct.ct_conf "seq_from_future" + get ct.ct_conf "nonmonotone_seq"
  | Stale_epoch -> get ct.ct_conf "bad_epoch"
  | Len_bomb -> ct.ct_malformed
  | Completion_forge -> get ct.ct_conf "forged_completion"
  | Notify_flood -> overflows

(* Doorbell kicks per [Notify_flood]: comfortably past the default
   4096-token bucket. *)
let storm_kicks = 6_000

let campaign ?sched ?seed ?(n_mutations = 600) () =
  let seed = match seed with Some s -> s | None -> Fault_inject.dseed "fuzz" in
  let w = Fault_inject.make_world () in
  let rec_ = Option.map (fun s -> Sched.install w.Fault_inject.eng s) sched in
  let report =
    Kernel.run ~max_ms:300_000 w.Fault_inject.k (fun () ->
      let open Fault_inject in
      let sv, ctx =
        supervise ~who:"proto_fuzz" w.k ~bdf:w.bdf (fun () ->
            Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts:max_int) ~bdf:w.bdf
              honest_factory)
      in
      let ct = new_chan_tally () in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected _ -> tally_chan ct sv
          | _ -> ());
      let dev = netdev_up ~who:"proto_fuzz" w sv in
      (* Bursts so the driver's tx_free downcalls coalesce into batch
         slots: the mutators must see both slot shapes. *)
      let tr = start_traffic ~burst:4 w dev ~gap_ns:400_000 in
      let rng = Rng.create ~seed in
      let applied = Hashtbl.create 8 in
      let skipped = ref 0 in
      let extra = ref [] in
      let sleep ns = ignore (Fiber.sleep w.eng ns : Fiber.wake) in
      let wait_running () =
        ignore
          (Fiber.poll w.eng ~every_ns:1_000_000 ~budget:2_000 (fun () ->
               Supervisor.state sv = Supervisor.Running)
           : bool)
      in
      (* Install a one-shot mutator on the current generation's channel
         and wait (bounded) for live traffic to trigger it. *)
      let apply_mutator chan mutate =
        let fired = ref false in
        Uchan.set_u2k_mutator chan
          (Some
             (fun ~queue:_ slot ->
                if not !fired then begin
                  mutate slot;
                  fired := true
                end));
        ignore
          (Fiber.poll w.eng ~every_ns:500_000 ~budget:100 (fun () ->
               !fired || Uchan.is_closed chan)
           : bool);
        if not (Uchan.is_closed chan) then Uchan.set_u2k_mutator chan None;
        !fired
      in
      (* Scalar-only mutations wrap their mutator so batch slots pass
         through untouched until a scalar one shows up. *)
      let scalar_only f slot = if not (Msg.Batch.is_batch slot) then f slot in
      let apply m =
        match Supervisor.chan sv with
        | None -> false
        | Some chan when Uchan.is_closed chan -> false
        | Some chan ->
          (match m with
           | Kind_swap -> apply_mutator chan mut_kind_swap
           | Seq_skew ->
             let future = Rng.int rng 2 = 0 in
             apply_mutator chan (scalar_only (mut_seq_skew ~future))
           | Stale_epoch -> apply_mutator chan mut_stale_epoch
           | Len_bomb -> apply_mutator chan mut_len_bomb
           | Completion_forge ->
             let ep = Uchan.epoch chan in
             Uchan.inject_raw chan (fun slot ->
                 Msg.marshal_into
                   (Msg.make ~seq:future_seq ~epoch:ep ~kind:control_kind ())
                   slot;
                 Bytes.set_uint16_le slot off_kind (wire_reply_flag lor control_kind))
           | Notify_flood ->
             Uchan.notify_storm chan storm_kicks;
             true)
      in
      let n_classes = List.length all_mutations in
      let class_arr = Array.of_list all_mutations in
      for i = 0 to n_mutations - 1 do
        (* Round-robin through the classes (coverage guaranteed), with a
           seeded draw inside Seq_skew for direction. *)
        let m = class_arr.(i mod n_classes) in
        wait_running ();
        if Supervisor.state sv = Supervisor.Running && apply m then begin
          count applied (mutation_name m);
          (* Give the escalation a couple of watchdog ticks to land
             before aiming the next mutation. *)
          sleep 2_000_000
        end
        else incr skipped
      done;
      (* Let the last mutation's detection land and the recovery it
         provokes finish — a storm's overflow is observed a tick after
         the loop ends, so the Running check must come after the settle,
         not before it. *)
      sleep 20_000_000;
      tr.tr_stop <- true;
      sleep 10_000_000;
      wait_running ();
      tally_chan ct sv;
      let overflows = Quota.notify_overflows (Supervisor.quota sv) in
      let violate fmt = Printf.ksprintf (fun s -> extra := s :: !extra) fmt in
      List.iter
        (fun m ->
           let n = mutation_name m in
           if get applied n = 0 then violate "mutation class %s was never applied" n
           else if detected_count ct ~overflows m = 0 then
             violate "mutation class %s applied %d times but never detected" n (get applied n))
        all_mutations;
      if Supervisor.state sv <> Supervisor.Running then
        violate "campaign ended with the supervisor not Running";
      let st = Supervisor.stats sv in
      { fz_seed = seed;
        fz_planned = n_mutations;
        fz_applied = Hashtbl.fold (fun _ n a -> n + a) applied 0;
        fz_skipped = !skipped;
        fz_by_class = List.map (fun m -> (mutation_name m, get applied (mutation_name m))) all_mutations;
        fz_detected =
          List.map (fun m -> (mutation_name m, detected_count ct ~overflows m)) all_mutations;
        fz_detections = st.Supervisor.st_detections;
        fz_restarts = st.Supervisor.st_restarts;
        fz_deaths = invariant_deaths ctx;
        fz_state = Supervisor.state sv;
        fz_violations = invariant_violations ctx @ List.rev !extra;
        fz_sched = Fault_inject.pending_sched })
  in
  { report with
    fz_sched =
      Fault_inject.finish_sched ~scenario:"fuzz" ~seed ~sched ~eng:w.Fault_inject.eng rec_
        ~violations:report.fz_violations }

(* ---- protocol-violation crash loop: the restart budget must quarantine ---- *)

type quarantine_report = {
  pq_restarts : int;
  pq_quarantined : bool;
  pq_violations : string list;
  pq_trace_hash : int64;
  pq_steps : int;
}

let quarantine_campaign ?(max_restarts = 3) () =
  let w = Fault_inject.make_world () in
  let r =
    Kernel.run w.Fault_inject.k (fun () ->
      let open Fault_inject in
      let sv, ctx =
        supervise ~who:"proto_fuzz quarantine" w.k ~bdf:w.bdf (fun () ->
            Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts) ~bdf:w.bdf
              honest_factory)
      in
      let tr = start_traffic w (netdev_up ~who:"proto_fuzz quarantine" w sv) ~gap_ns:400_000 in
      (* Every fresh generation speaks out of protocol immediately: the
         supervisor must burn its restart budget and quarantine. *)
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"proto-looper"
           (fun () ->
              let rec loop () =
                if Supervisor.state sv <> Supervisor.Quarantined then begin
                  (match Supervisor.chan sv with
                   | Some chan
                     when (not (Uchan.is_closed chan))
                          && Supervisor.state sv = Supervisor.Running ->
                     Uchan.set_u2k_mutator chan
                       (Some (fun ~queue:_ slot -> mut_kind_swap slot))
                   | Some _ | None -> ());
                  ignore (Fiber.sleep w.eng 2_000_000 : Fiber.wake);
                  loop ()
                end
              in
              loop ())
         : Fiber.t);
      ignore
        (Fiber.poll w.eng ~every_ns:10_000_000 ~budget:1_000 (fun () ->
             Supervisor.state sv = Supervisor.Quarantined)
         : bool);
      tr.tr_stop <- true;
      let st = Supervisor.stats sv in
      { pq_restarts = st.Supervisor.st_restarts;
        pq_quarantined = Supervisor.state sv = Supervisor.Quarantined;
        pq_violations = invariant_violations ctx;
        pq_trace_hash = 0L;
        pq_steps = 0 })
  in
  let eng = w.Fault_inject.eng in
  { r with pq_trace_hash = Engine.trace_hash eng; pq_steps = Engine.steps eng }
