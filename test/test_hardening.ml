(* Adversarial interface hardening: the uchan protocol adjudicator, the
   per-driver resource ledger, and the live Byzantine fuzzer tying them
   to the supervisor. *)

open Helpers

(* A tiny kind vocabulary for driving the DFA directly. *)
let test_profile =
  { Conformance.p_name = "test";
    p_classify =
      (function
       | 1 -> Conformance.Register
       | 2 -> Conformance.Data
       | 3 -> Conformance.Control
       | _ -> Conformance.Unknown) }

let check_v name expect verdict =
  match verdict with
  | Conformance.Violation v ->
    Alcotest.(check string) name (Conformance.class_name expect) (Conformance.class_name v)
  | Conformance.Pass -> Alcotest.fail (name ^ ": expected a violation, got Pass")

let no_pending _ = false

let test_conformance_classes () =
  let c = Conformance.create ~profile:test_profile ~label:"t" ~epoch:7 () in
  let ing ?(epoch = 7) ?(is_reply = false) ?(seq = 0) ?(pending = no_pending)
      ?(issued_hi = 0) kind =
    Conformance.check_ingress c ~epoch ~is_reply ~seq ~kind ~pending ~issued_hi
  in
  (* Epoch outranks everything. *)
  check_v "dead epoch" Conformance.Bad_epoch (ing ~epoch:6 3);
  (* Data before the registration handshake. *)
  check_v "early data" Conformance.Early_data (ing 2);
  (* Control is legal in Start. *)
  Alcotest.(check bool) "control in Start" true (ing 3 = Conformance.Pass);
  (* Out-of-vocabulary kind. *)
  check_v "unknown kind" Conformance.Unknown_kind (ing 99);
  (* Register gates the data plane open. *)
  Alcotest.(check bool) "register" true (ing 1 = Conformance.Pass);
  Alcotest.(check bool) "data once Ready" true (ing 2 = Conformance.Pass);
  (* Completion matching: above the issue high-water mark = forged;
     issued but no longer pending = stale (counted, never escalated). *)
  check_v "forged completion" Conformance.Forged_completion
    (ing ~is_reply:true ~seq:9 ~issued_hi:3 3);
  check_v "stale completion" Conformance.Stale_completion
    (ing ~is_reply:true ~seq:2 ~issued_hi:3 3);
  Alcotest.(check bool) "live reply passes" true
    (ing ~is_reply:true ~seq:2 ~issued_hi:3 ~pending:(fun s -> s = 2) 3 = Conformance.Pass);
  (* Sequence discipline for non-replies. *)
  check_v "seq from future" Conformance.Seq_from_future (ing ~seq:9 ~issued_hi:3 3);
  Alcotest.(check bool) "fresh seq passes" true
    (ing ~seq:2 ~issued_hi:3 3 = Conformance.Pass);
  check_v "nonmonotone seq" Conformance.Nonmonotone_seq (ing ~seq:2 ~issued_hi:5 3);
  (* Stale completions never escalate; everything else did. *)
  Alcotest.(check int) "escalation total" 6 (Conformance.violations c);
  Alcotest.(check int) "stale counted separately" 1
    (Conformance.class_count c Conformance.Stale_completion);
  (* A new generation re-arms the handshake and adopts the new epoch. *)
  Conformance.new_generation c ~epoch:8;
  check_v "old epoch now dead" Conformance.Bad_epoch (ing 3);
  check_v "handshake re-armed" Conformance.Early_data (ing ~epoch:8 2)

let test_quota_ledger () =
  run_in_kernel setup_duo (fun k _duo ->
      let limits =
        { Quota.default_limits with
          Quota.max_grants = 2;
          max_dma_bytes = 8 * 4096;
          max_iopt_pages = 8;
          max_uchan_bytes = Quota.ring_bytes ~slots:256 ~queues:2 }
      in
      let q = Quota.create k.Kernel.eng ~limits ~name:"t" () in
      (* Grants. *)
      ok_or_fail "grant 1" (Quota.charge_grant q);
      ok_or_fail "grant 2" (Quota.charge_grant q);
      (match Quota.charge_grant q with
       | Ok () -> Alcotest.fail "third grant should be denied"
       | Error _ -> ());
      Alcotest.(check int) "denial counted" 1 (Quota.denials q);
      Quota.release_grant q;
      ok_or_fail "grant after release" (Quota.charge_grant q);
      (* DMA bytes + IO-page-table pages. *)
      ok_or_fail "dma" (Quota.charge_dma q ~bytes:(4 * 4096) ~pages:4);
      Alcotest.(check int) "iopt pages" (Quota.iopt_pages_for ~pages:4) (Quota.iopt_pages q);
      (match Quota.charge_dma q ~bytes:(8 * 4096) ~pages:8 with
       | Ok () -> Alcotest.fail "over-limit DMA should be denied"
       | Error _ -> ());
      Quota.release_dma q ~bytes:(4 * 4096) ~pages:4;
      Alcotest.(check int) "dma released" 0 (Quota.dma_bytes q);
      Alcotest.(check int) "iopt released" 0 (Quota.iopt_pages q);
      (* Queue negotiation clamps to the remaining uchan budget. *)
      Alcotest.(check int) "8 queues clamp to 2" 2 (Quota.negotiate_queues q ~slots:256 ~queues:8);
      ok_or_fail "charge rings"
        (Quota.charge_uchan q ~bytes:(Quota.ring_bytes ~slots:256 ~queues:2));
      Alcotest.(check int) "budget now fits 1" 1 (Quota.negotiate_queues q ~slots:256 ~queues:8))

let test_quota_token_bucket () =
  run_in_kernel setup_duo (fun k _duo ->
      let limits =
        { Quota.default_limits with Quota.notify_burst = 4; notify_rate = 1_000_000 }
      in
      let q = Quota.create k.Kernel.eng ~limits ~name:"tb" () in
      for _ = 1 to 4 do
        Quota.note_notify q ~queue:0
      done;
      Alcotest.(check int) "burst absorbed" 0 (Quota.notify_overflows q);
      Quota.note_notify q ~queue:0;
      Alcotest.(check int) "overflow counted" 1 (Quota.notify_overflows q);
      (* Kernel-side IRQ kicks are genuinely dropped when dry. *)
      Alcotest.(check bool) "irq token denied" false (Quota.take_irq_token q ~queue:0);
      Alcotest.(check int) "irq drop counted" 1 (Quota.irq_kicks_dropped q);
      (* Queues have independent buckets. *)
      Alcotest.(check bool) "sibling queue unaffected" true (Quota.take_irq_token q ~queue:1);
      (* 1M tokens/s: 3 us refills 3 tokens. *)
      ignore (Fiber.sleep k.Kernel.eng 3_000 : Fiber.wake);
      Alcotest.(check bool) "refilled 1" true (Quota.take_irq_token q ~queue:0);
      Alcotest.(check bool) "refilled 2" true (Quota.take_irq_token q ~queue:0);
      Alcotest.(check bool) "refilled 3" true (Quota.take_irq_token q ~queue:0);
      Alcotest.(check bool) "not past refill" false (Quota.take_irq_token q ~queue:0))

let test_quota_charges_driver_footprint () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let q = Quota.create k.Kernel.eng ~name:"eth0" () in
      let s =
        ok_or_fail "start"
          (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" ~quota:q E1000.driver)
      in
      Alcotest.(check int) "grant charged" 1 (Quota.grants q);
      Alcotest.(check bool) "dma charged" true (Quota.dma_bytes q > 0);
      Alcotest.(check int) "rings charged"
        (Quota.ring_bytes ~slots:256 ~queues:(Driver_host.queues s))
        (Quota.uchan_bytes q);
      Alcotest.(check bool) "iopt pages charged" true (Quota.iopt_pages q > 0);
      (* Death releases the whole footprint — nothing to launder. *)
      Driver_host.kill s;
      ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
      Alcotest.(check int) "grant released" 0 (Quota.grants q);
      Alcotest.(check int) "dma released" 0 (Quota.dma_bytes q);
      Alcotest.(check int) "rings released" 0 (Quota.uchan_bytes q);
      Alcotest.(check int) "iopt released" 0 (Quota.iopt_pages q))

let test_quota_negotiates_queues_at_start () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let limits =
        { Quota.default_limits with
          Quota.max_uchan_bytes = Quota.ring_bytes ~slots:256 ~queues:1 }
      in
      let q = Quota.create k.Kernel.eng ~limits ~name:"eth0" () in
      let s =
        ok_or_fail "start"
          (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" ~quota:q ~queues:4
             E1000.driver)
      in
      Alcotest.(check int) "queues negotiated down to budget" 1 (Driver_host.queues s);
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
      Driver_host.kill s)

let test_quota_denies_grant () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let q =
        Quota.create k.Kernel.eng
          ~limits:{ Quota.default_limits with Quota.max_grants = 0 }
          ~name:"eth0" ()
      in
      match Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" ~quota:q E1000.driver with
      | Ok _ -> Alcotest.fail "start should be denied by the grant quota"
      | Error _ -> Alcotest.(check bool) "denial counted" true (Quota.denials q > 0))

(* Conformance wired into the channel: a driver restart bumps the epoch,
   so a frame replayed from the dead generation is adjudicated
   Bad_epoch and dropped before the proxy ever sees it. *)
let test_epoch_across_restart () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s =
        ok_or_fail "start"
          (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
      in
      Alcotest.(check int) "epoch 0" 0 (Driver_host.epoch s);
      Alcotest.(check int) "chan stamps epoch 0" 0 (Uchan.epoch (Driver_host.chan s));
      let s2 = ok_or_fail "restart" (Driver_host.restart s) in
      Alcotest.(check int) "epoch 1" 1 (Driver_host.epoch s2);
      let chan = Driver_host.chan s2 in
      Alcotest.(check int) "chan stamps epoch 1" 1 (Uchan.epoch chan);
      (* Replay a frame wearing the dead generation's epoch. *)
      let before = Conformance.class_count (Uchan.conformance chan) Conformance.Bad_epoch in
      Alcotest.(check bool) "raw slot injected" true
        (Uchan.inject_raw chan (fun slot ->
             Msg.marshal_into (Msg.make ~epoch:0 ~kind:104 ()) slot));
      ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
      Alcotest.(check int) "replay adjudicated Bad_epoch" (before + 1)
        (Conformance.class_count (Uchan.conformance chan) Conformance.Bad_epoch);
      Driver_host.kill s2)

(* ---- the live Byzantine fuzzer (smoke; the 500+-mutation campaign
   runs under `make fuzz-smoke` / the bench harness) ---- *)

let test_fuzz_smoke () =
  let r = Proto_fuzz.campaign ~seed:7L ~n_mutations:18 () in
  Alcotest.(check (list string)) "no invariant violations" [] r.Proto_fuzz.fz_violations;
  Alcotest.(check bool) "mutations applied" true (r.Proto_fuzz.fz_applied >= 12);
  List.iter
    (fun (cls, n) ->
       if n = 0 then Alcotest.fail (Printf.sprintf "class %s never detected" cls))
    r.Proto_fuzz.fz_detected;
  Alcotest.(check bool) "supervisor recovered every time" true
    (r.Proto_fuzz.fz_state = Supervisor.Running)

let test_proto_quarantine () =
  let r = Proto_fuzz.quarantine_campaign ~max_restarts:3 () in
  Alcotest.(check (list string)) "no invariant violations" [] r.Proto_fuzz.pq_violations;
  Alcotest.(check bool) "quarantined" true r.Proto_fuzz.pq_quarantined;
  Alcotest.(check bool) "burned the restart budget" true (r.Proto_fuzz.pq_restarts >= 3)

(* ---- shadow recovery replays interface state (satellite) ---- *)

let test_shadow_updown_replay () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s =
        ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
      in
      let shadow = Shadow.watch k ~poll_ms:5 s in
      (* Generation 1 dies with the interface DOWN: the shadow must
         restart the driver but leave the interface down. *)
      ignore (Fiber.sleep k.Kernel.eng 20_000_000 : Fiber.wake);
      Driver_host.kill s;
      ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
      Alcotest.(check int) "first restart" 1 (Shadow.restarts shadow);
      let s2 = Shadow.current shadow in
      Alcotest.(check bool) "fresh process alive" true
        (Process.is_alive (Driver_host.proc s2));
      Alcotest.(check bool) "interface stayed down" false
        (Netdev.is_up (Driver_host.netdev s2));
      (* The administrator brings it up; generation 2 dies: the shadow
         must replay the captured up state. *)
      ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s2));
      ignore (Fiber.sleep k.Kernel.eng 20_000_000 : Fiber.wake);
      Driver_host.kill s2;
      ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
      Alcotest.(check int) "second restart" 2 (Shadow.restarts shadow);
      Alcotest.(check bool) "interface replayed up" true
        (Netdev.is_up (Driver_host.netdev (Shadow.current shadow)));
      Shadow.stop shadow)

(* ---- setrlimit_memory edge cases (satellite) ---- *)

let test_setrlimit_edges () =
  run_in_kernel setup_duo (fun k _duo ->
      let p = Process.spawn k.Kernel.procs ~name:"edge" ~uid:1000 in
      Process.charge_memory p ~bytes:100;
      (* Lowering the limit below current usage keeps the usage (as
         setrlimit does) but forbids any further charge. *)
      Process.setrlimit_memory p ~bytes:(Some 50);
      Alcotest.(check int) "usage survives the lowering" 100 (Process.memory_used p);
      (match Process.charge_memory p ~bytes:1 with
       | () -> Alcotest.fail "charge above a lowered limit must fail"
       | exception Process.Rlimit_exceeded _ -> ());
      (* Uncharging below the new limit re-opens headroom. *)
      Process.uncharge_memory p ~bytes:60;
      Process.charge_memory p ~bytes:10;
      Alcotest.(check int) "charge after uncharge" 50 (Process.memory_used p);
      (* A limit exactly at usage: the boundary itself is legal, one more
         byte is not. *)
      Process.setrlimit_memory p ~bytes:(Some (Process.memory_used p));
      (match Process.charge_memory p ~bytes:1 with
       | () -> Alcotest.fail "charge at an exact limit must fail"
       | exception Process.Rlimit_exceeded _ -> ());
      Process.uncharge_memory p ~bytes:1;
      Process.charge_memory p ~bytes:1;
      Alcotest.(check int) "exactly at the limit" 50 (Process.memory_used p);
      Process.kill p;
      Alcotest.(check int) "death drops the charges" 0 (Process.memory_used p))

let test_rlimit_across_restart_generation () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      let s =
        ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
      in
      let p1 = Driver_host.proc s in
      let used_gen1 = Process.memory_used p1 in
      Alcotest.(check bool) "generation 1 charged" true (used_gen1 > 0);
      Driver_host.set_memory_limit s ~bytes:(used_gen1 + 4096);
      let s2 = ok_or_fail "restart" (Driver_host.restart s) in
      let p2 = Driver_host.proc s2 in
      (* Charge/uncharge symmetry across the generation: the dead process
         dropped everything, the fresh one re-charged the same footprint
         from zero (rlimits are per process and do not carry over). *)
      Alcotest.(check int) "old generation fully uncharged" 0 (Process.memory_used p1);
      Alcotest.(check int) "fresh generation re-charged the same footprint" used_gen1
        (Process.memory_used p2);
      Process.charge_memory p2 ~bytes:(used_gen1 + 100_000);
      Process.uncharge_memory p2 ~bytes:(used_gen1 + 100_000);
      Alcotest.(check int) "charge/uncharge symmetric" used_gen1 (Process.memory_used p2);
      Driver_host.kill s2)

(* ---- shadow recovery composes with per-queue backlog replay: no frame
   is reordered within its flow (satellite property) ---- *)

let shadow_backlog_order_test =
  let n_flows = 3 in
  let mk_payload ~flow ~seq =
    let b = Bytes.make (Rss.flow_span + 2) '\x00' in
    Bytes.set_uint16_be b 15 (1000 + flow);
    Bytes.set_uint16_be b 17 (7 * (flow + 1));
    Bytes.set_uint16_be b Rss.flow_span seq;
    b
  in
  let gen = QCheck.Gen.(list_size (int_range 1 24) (int_bound (n_flows - 1))) in
  QCheck.Test.make ~name:"shadow recovery + backlog replay keeps per-flow order" ~count:6
    (QCheck.make gen)
    (fun flows ->
       run_in_kernel setup_duo (fun k duo ->
           let sp = Safe_pci.init k in
           let s =
             ok_or_fail "start"
               (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
           in
           ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
           let shadow = Shadow.watch k ~poll_ms:5 s in
           (* Let the watcher observe (and latch) the up state. *)
           ignore (Fiber.sleep k.Kernel.eng 20_000_000 : Fiber.wake);
           let old_dev = Driver_host.netdev s in
           let queues = Netdev.tx_queues old_dev in
           (* The driver dies; frames arriving during the outage park in
              the per-queue backlog, steered by the same RSS hash
              dev_xmit uses. *)
           Driver_host.kill s;
           let offered = Array.make n_flows [] in
           List.iteri
             (fun i flow ->
                let payload = mk_payload ~flow ~seq:i in
                offered.(flow) <- i :: offered.(flow);
                let queue = Rss.queue_for ~queues payload in
                match
                  Netdev.backlog_push old_dev ~queue ~limit:256 (Skbuff.of_bytes payload)
                with
                | Netdev.Xmit_ok -> ()
                | Netdev.Xmit_busy -> failwith "unexpected backlog overflow")
             flows;
           ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
           if Shadow.restarts shadow < 1 then Alcotest.fail "shadow did not recover";
           let fresh = Shadow.current shadow in
           if not (Netdev.is_up (Driver_host.netdev fresh)) then
             Alcotest.fail "interface not replayed up";
           (* Replay queue-major (the supervisor's discipline) through
              the fresh generation and observe the wire: frames travel
              proxy -> driver -> device -> medium byte-identical. *)
           let seen = ref [] in
           ignore
             (Net_medium.attach duo.medium ~name:"order-snoop" ~rx:(fun f ->
                  if Bytes.length f >= Rss.flow_span + 2 then begin
                    let flow = Bytes.get_uint16_be f 15 - 1000 in
                    let seq = Bytes.get_uint16_be f Rss.flow_span in
                    if flow >= 0 && flow < n_flows then seen := (flow, seq) :: !seen
                  end)
              : Net_medium.port);
           for q = 0 to queues - 1 do
             let rec go () =
               match Netdev.backlog_pop old_dev ~queue:q with
               | None -> ()
               | Some skb ->
                 (match
                    Netstack.dev_xmit k.Kernel.net (Driver_host.netdev fresh) skb
                  with
                  | `Sent -> ()
                  | `Dropped -> Alcotest.fail "replayed frame dropped");
                 go ()
             in
             go ()
           done;
           ignore (Fiber.sleep k.Kernel.eng 100_000_000 : Fiber.wake);
           Shadow.stop shadow;
           let replayed = Array.make n_flows [] in
           List.iter (fun (flow, seq) -> replayed.(flow) <- seq :: replayed.(flow))
             (List.rev !seen);
           (* Every flow's frames hit the wire in offered order (the wire
              may interleave flows, never reorder within one). *)
           Array.for_all2 (fun o r -> List.rev o = List.rev r) offered replayed))

let suite =
  [ Alcotest.test_case "conformance: every violation class" `Quick test_conformance_classes;
    Alcotest.test_case "quota: ledger charges and denials" `Quick test_quota_ledger;
    Alcotest.test_case "quota: notification token bucket" `Quick test_quota_token_bucket;
    Alcotest.test_case "quota: charges the driver footprint" `Quick
      test_quota_charges_driver_footprint;
    Alcotest.test_case "quota: negotiates queues at start" `Quick
      test_quota_negotiates_queues_at_start;
    Alcotest.test_case "quota: denies the grant" `Quick test_quota_denies_grant;
    Alcotest.test_case "epoch: restart invalidates replayed frames" `Quick
      test_epoch_across_restart;
    Alcotest.test_case "fuzz: campaign smoke" `Slow test_fuzz_smoke;
    Alcotest.test_case "fuzz: protocol crash-loop quarantines" `Slow test_proto_quarantine;
    Alcotest.test_case "shadow: up/down replay across kills" `Quick test_shadow_updown_replay;
    Alcotest.test_case "rlimit: setrlimit_memory edge cases" `Quick test_setrlimit_edges;
    Alcotest.test_case "rlimit: symmetry across restart generation" `Quick
      test_rlimit_across_restart_generation ]
  @ List.map QCheck_alcotest.to_alcotest [ shadow_backlog_order_test ]
