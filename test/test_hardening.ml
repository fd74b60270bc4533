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

(* The ledger reads its usage from the capability tables alone: entries
   recorded here with no-op revocations, one table per generation, are
   what it limits, and revoking them gives the capacity back. *)
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
      let generation () =
        Quota.table (Some q) (Process.spawn k.Kernel.procs ~name:"t" ~uid:1000)
      in
      let acquire caps cap =
        Result.map (fun () -> Quota.record caps cap ~revoke:ignore) (Quota.admit caps cap)
      in
      let g1 = generation () and g2 = generation () and g3 = generation () in
      (* Grants. *)
      ok_or_fail "grant 1" (acquire g1 Quota.Grant);
      ok_or_fail "grant 2" (acquire g2 Quota.Grant);
      (match acquire g3 Quota.Grant with
       | Ok () -> Alcotest.fail "third grant should be denied"
       | Error _ -> ());
      Alcotest.(check int) "denial counted" 1 (Quota.denials q);
      Quota.revoke g2 (fun _ -> true);
      ok_or_fail "grant after revoke" (acquire g3 Quota.Grant);
      (* DMA bytes + IO-page-table pages. *)
      let dma pages = Quota.Dma { iova = 0; phys = 0; pages } in
      ok_or_fail "dma" (acquire g1 (dma 4));
      Alcotest.(check int) "iopt pages" (Quota.iopt_pages_for ~pages:4) (Quota.iopt_pages q);
      (match acquire g3 (dma 8) with
       | Ok () -> Alcotest.fail "over-limit DMA should be denied"
       | Error _ -> ());
      Quota.revoke g1 (function Quota.Dma _ -> true | _ -> false);
      Alcotest.(check int) "dma released" 0 (Quota.dma_bytes q);
      Alcotest.(check int) "iopt released" 0 (Quota.iopt_pages q);
      (* Queue negotiation clamps to the remaining uchan budget. *)
      Alcotest.(check int) "8 queues clamp to 2" 2 (Quota.negotiate_queues q ~slots:256 ~queues:8);
      ok_or_fail "record rings"
        (acquire g1 (Quota.Rings { bytes = Quota.ring_bytes ~slots:256 ~queues:2 }));
      Alcotest.(check int) "budget now fits 1" 1 (Quota.negotiate_queues q ~slots:256 ~queues:8))

(* Admission and record happen without a yield between them, so two
   fibers of one generation cannot both pass admission while the first
   sleeps in its mapping's CPU charge: the second waits out its
   backpressure and is denied. *)
let test_quota_concurrent_dma () =
  run_in_kernel setup_duo (fun k duo ->
      let sp = Safe_pci.init k in
      Safe_pci.register_device sp duo.bdf_a;
      Safe_pci.set_owner sp duo.bdf_a ~uid:1000;
      let limits = { Quota.default_limits with Quota.max_dma_bytes = 16 * 4096 } in
      let q = Quota.create k.Kernel.eng ~limits ~name:"t" () in
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      let grant =
        ok_or_fail "open" (Safe_pci.open_device sp ~caps:(Quota.table (Some q) proc) duo.bdf_a ~proc)
      in
      let results = ref [] in
      for _ = 1 to 2 do
        ignore
          (Process.spawn_fiber proc (fun () ->
               let r = Safe_pci.alloc_dma grant ~bytes:(12 * 4096) () in
               results := r :: !results)
           : Fiber.t)
      done;
      ignore (Fiber.sleep k.Kernel.eng 1_000_000 : Fiber.wake);
      Alcotest.(check int) "both fibers answered" 2 (List.length !results);
      Alcotest.(check int) "one allocation admitted" 1 (List.length (List.filter Result.is_ok !results));
      Alcotest.(check int) "the second denied" 1 (Quota.denials q);
      Alcotest.(check int) "within the ledger" (12 * 4096) (Quota.dma_bytes q))

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

(* At 10^9 tokens/s or more the refill is unbounded: adding it to a
   bucket that still holds a token must saturate at the burst depth, not
   wrap negative and drop the kick. *)
let test_quota_bucket_refill_saturates () =
  run_in_kernel setup_duo (fun k _duo ->
      let limits =
        { Quota.default_limits with Quota.notify_burst = 4; notify_rate = 1_000_000_000 }
      in
      let q = Quota.create k.Kernel.eng ~limits ~name:"fast" () in
      Alcotest.(check bool) "first token" true (Quota.take_irq_token q ~queue:0);
      ignore (Fiber.sleep k.Kernel.eng 1_000 : Fiber.wake);
      Alcotest.(check bool) "refilled, not wrapped" true (Quota.take_irq_token q ~queue:0);
      Alcotest.(check int) "nothing dropped" 0 (Quota.irq_kicks_dropped q))

(* One driver class's whole footprint lives in its generation's table,
   and death revokes all of it: the table empties, every ledger usage
   reads 0, the physical pages come back, and the interrupt space hands
   back exactly the dead generation's vectors.  [bring_up] runs after
   the launch (net classes request their vectors at ifconfig up);
   [holds] names a capability kind the class must have recorded. *)
let check_footprint_revoked k sp ~bdf ~bring_up ~holds cls drv =
  let q = Quota.create k.Kernel.eng ~name:"drv" () in
  let pages_before = Phys_mem.allocated_pages k.Kernel.mem in
  let s = ok_or_fail "start" (Driver_host.launch k sp cls ~bdf ~name:"drv" ~quota:q drv) in
  bring_up s;
  let caps = Safe_pci.grant_caps (Driver_host.grant s) in
  let held = List.map Quota.cap (Quota.held caps) in
  Alcotest.(check int) "grant charged" 1 (Quota.grants q);
  Alcotest.(check bool) "dma charged" true (Quota.dma_bytes q > 0);
  Alcotest.(check int) "rings charged"
    (Quota.ring_bytes ~slots:256 ~queues:(Driver_host.queues s))
    (Quota.uchan_bytes q);
  Alcotest.(check bool) "iopt pages charged" true (Quota.iopt_pages q > 0);
  Alcotest.(check bool) "class capability held" true (List.exists holds held);
  let vectors =
    List.concat_map (function Quota.Vectors v -> Array.to_list v | _ -> []) held
  in
  Alcotest.(check bool) "vectors held" true (vectors <> []);
  (* Death revokes the whole footprint — nothing to launder. *)
  Driver_host.kill s;
  ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
  Alcotest.(check int) "table empty" 0 (List.length (Quota.held caps));
  Alcotest.(check int) "grant released" 0 (Quota.grants q);
  Alcotest.(check int) "dma released" 0 (Quota.dma_bytes q);
  Alcotest.(check int) "rings released" 0 (Quota.uchan_bytes q);
  Alcotest.(check int) "iopt released" 0 (Quota.iopt_pages q);
  Alcotest.(check int) "pages back" pages_before (Phys_mem.allocated_pages k.Kernel.mem);
  Alcotest.(check (list int)) "the dead generation's vectors come back"
    (List.sort compare vectors)
    (List.sort compare
       (Array.to_list (Irq.alloc_vectors k.Kernel.irq ~n:(List.length vectors))))

let ifconfig_up k s = ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s))

let test_quota_charges_driver_footprint () =
  (* e1000: DMA rings and MSI-X vectors. *)
  run_in_kernel setup_duo (fun k duo ->
      check_footprint_revoked k (Safe_pci.init k) ~bdf:duo.bdf_a ~bring_up:(ifconfig_up k)
        ~holds:(function Quota.Dma _ -> true | _ -> false)
        (Driver_host.net ()) E1000.driver);
  (* NVMe: per-queue vectors requested at probe. *)
  run_in_kernel
    (fun k -> Kernel.attach_pci k (Nvme_dev.device (Nvme_dev.create k.Kernel.eng ())))
    (fun k bdf ->
       check_footprint_revoked k (Safe_pci.init k) ~bdf ~bring_up:ignore
         ~holds:(function Quota.Vectors v -> Array.length v > 1 | _ -> false)
         (Driver_host.blk ()) Nvme.driver);
  (* ne2k: an IO-port range in the process's bitmap. *)
  run_in_kernel
    (fun k ->
       let medium = Net_medium.create k.Kernel.eng () in
       Kernel.attach_pci k (Ne2k_dev.device (Ne2k_dev.create k.Kernel.eng ~mac:mac_a ~medium ())))
    (fun k bdf ->
       check_footprint_revoked k (Safe_pci.init k) ~bdf ~bring_up:(ifconfig_up k)
         ~holds:(function Quota.Io_ports _ -> true | _ -> false)
         (Driver_host.net ()) Ne2k.driver)

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

let suite =
  [ Alcotest.test_case "conformance: every violation class" `Quick test_conformance_classes;
    Alcotest.test_case "quota: ledger charges and denials" `Quick test_quota_ledger;
    Alcotest.test_case "quota: concurrent DMA allocations stay within it" `Quick
      test_quota_concurrent_dma;
    Alcotest.test_case "quota: notification token bucket" `Quick test_quota_token_bucket;
    Alcotest.test_case "quota: a 1e9/s bucket refill saturates" `Quick
      test_quota_bucket_refill_saturates;
    Alcotest.test_case "quota: charges the driver footprint" `Quick
      test_quota_charges_driver_footprint;
    Alcotest.test_case "quota: negotiates queues at start" `Quick
      test_quota_negotiates_queues_at_start;
    Alcotest.test_case "quota: denies the grant" `Quick test_quota_denies_grant;
    Alcotest.test_case "epoch: restart invalidates replayed frames" `Quick
      test_epoch_across_restart;
    Alcotest.test_case "fuzz: campaign smoke" `Slow test_fuzz_smoke;
    Alcotest.test_case "fuzz: protocol crash-loop quarantines" `Slow test_proto_quarantine;
    Alcotest.test_case "rlimit: setrlimit_memory edge cases" `Quick test_setrlimit_edges;
    Alcotest.test_case "rlimit: symmetry across restart generation" `Quick
      test_rlimit_across_restart_generation ]
