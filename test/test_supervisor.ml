(* Supervisor unit tests plus the seeded fault-cycle property: after N
   random faults under live traffic, the dead generations' grants are
   revoked, the IOTLB answers for none of their mappings, and backlog
   accounting stays exact.  Complements test_security.ml, which shows each
   attack contained once — here the loop is detect → contain → recover,
   hundreds of times. *)

let mac = Skbuff.Mac.of_string "52:54:00:77:88:99"

type world = {
  eng : Engine.t;
  k : Kernel.t;
  sp : Safe_pci.t;
  bdf : Bus.bdf;
  medium : Net_medium.t;
}

let make_world () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  { eng; k; sp; bdf; medium }

let settle w ms = ignore (Fiber.sleep w.eng (ms * 1_000_000) : Fiber.wake)

let fast_policy =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000 }

let start_supervised ?(policy = fast_policy) w =
  match
    Supervisor.start w.k w.sp ~policy ~name:"eth0" ~bdf:w.bdf (fun ~attempt:_ -> E1000.driver)
  with
  | Ok sv -> sv
  | Error e -> Alcotest.fail ("supervisor start: " ^ e)

let test_starts_running () =
  let w = make_world () in
  Kernel.run w.k (fun () ->
      let sv = start_supervised w in
      Alcotest.(check bool) "running" true (Supervisor.state sv = Supervisor.Running);
      Alcotest.(check bool) "driver proc live" true
        (match Supervisor.proc sv with Some p -> Process.is_alive p | None -> false);
      Alcotest.(check int) "no restarts yet" 0 (Supervisor.stats sv).Supervisor.st_restarts;
      Supervisor.stop sv;
      Alcotest.(check bool) "stopped" true (Supervisor.state sv = Supervisor.Stopped))

let test_kill_auto_restart () =
  let w = make_world () in
  Kernel.run w.k (fun () ->
      let sv = start_supervised w in
      let old = match Supervisor.proc sv with Some p -> p | None -> Alcotest.fail "no proc" in
      Process.kill old;
      settle w 50;
      let st = Supervisor.stats sv in
      Alcotest.(check bool) "back to running" true
        (Supervisor.state sv = Supervisor.Running);
      Alcotest.(check int) "one restart" 1 st.Supervisor.st_restarts;
      Alcotest.(check bool) "old generation dead" true (not (Process.is_alive old));
      Alcotest.(check bool) "fresh process serving" true
        (match Supervisor.proc sv with
         | Some p -> Process.is_alive p && Process.pid p <> Process.pid old
         | None -> false);
      Supervisor.stop sv)

(* The administrator's up/down choice survives every kill: a driver that
   dies with the interface down restarts down, one that dies up comes back
   up, and one taken down again stays down.  Run cold and with the warm
   standby swapping in. *)
let test_updown_across_kills ~standby () =
  let w = make_world () in
  let policy = { fast_policy with Supervisor.standby } in
  Kernel.run w.k (fun () ->
      let sv = start_supervised ~policy w in
      let dev = Supervisor.netdev sv in
      let kill_and_check ~restarts ~up what =
        settle w 20;
        (match Supervisor.proc sv with Some p -> Process.kill p | None -> Alcotest.fail "no proc");
        settle w 50;
        Alcotest.(check bool) (what ^ ": running") true (Supervisor.state sv = Supervisor.Running);
        Alcotest.(check int) (what ^ ": restarts") restarts
          (Supervisor.stats sv).Supervisor.st_restarts;
        Alcotest.(check bool) (what ^ ": same netdev") true (Supervisor.netdev sv == dev);
        Alcotest.(check bool) (what ^ ": interface up") up (Netdev.is_up dev)
      in
      kill_and_check ~restarts:1 ~up:false "killed down";
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("ifconfig up: " ^ e));
      kill_and_check ~restarts:2 ~up:true "killed up";
      Netstack.ifconfig_down w.k.Kernel.net dev;
      kill_and_check ~restarts:3 ~up:false "killed after down";
      Alcotest.(check bool) "recovery path" standby (Supervisor.warm_swaps sv > 0);
      Supervisor.stop sv)

(* While the driver is down the netdev degrades into a backlog; frames
   offered during the outage are replayed, and the counters always satisfy
   offered = queued + dropped + replayed. *)
let test_backlog_replayed () =
  let w = make_world () in
  (* Wide recovery window so the sends below land mid-outage. *)
  let policy =
    { fast_policy with
      Supervisor.backoff_initial_ns = 20_000_000;
      backoff_max_ns = 40_000_000;
      (* These tests probe the cold outage window (backlog parks during
         backoff), so the warm standby must stay out of the way. *)
      standby = false }
  in
  Kernel.run w.k (fun () ->
      let sv = start_supervised ~policy w in
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("ifconfig up: " ^ e));
      let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:9000 in
      (match Supervisor.proc sv with Some p -> Process.kill p | None -> Alcotest.fail "no proc");
      settle w 2;
      Alcotest.(check bool) "recovering during backoff" true
        (Supervisor.state sv = Supervisor.Recovering);
      let payload = Bytes.make 64 'b' in
      for _ = 1 to 5 do
        ignore
          (Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast ~dst_port:9000
             payload
           : [ `Sent | `Dropped ])
      done;
      settle w 100;
      let bl =
        let nm = Netdev.metrics dev in
        { Netdev.bl_offered = Sud_obs.Metrics.get nm.Netdev.nm_bl_offered;
          bl_queued = Sud_obs.Metrics.gauge_value nm.Netdev.nm_bl_queued;
          bl_dropped = Sud_obs.Metrics.get nm.Netdev.nm_bl_dropped;
          bl_replayed = Sud_obs.Metrics.get nm.Netdev.nm_bl_replayed }
      in
      Alcotest.(check bool) "running again" true (Supervisor.state sv = Supervisor.Running);
      Alcotest.(check bool) "frames were parked" true (bl.Netdev.bl_offered >= 5);
      Alcotest.(check int) "backlog accounting exact" bl.Netdev.bl_offered
        (bl.Netdev.bl_queued + bl.Netdev.bl_dropped + bl.Netdev.bl_replayed);
      Alcotest.(check bool) "parked frames replayed" true (bl.Netdev.bl_replayed >= 5);
      Supervisor.stop sv)

(* A Corrupt_batch injection garbles one frame inside the driver's next
   multi-frame downcall batch.  Containment is in place: that frame is
   dropped and counted malformed, its siblings deliver, and — unlike every
   other fault class — nothing escalates to a restart. *)
let test_batch_corrupt_no_restart () =
  let w = make_world () in
  Kernel.run w.k (fun () ->
      let sv = start_supervised w in
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("ifconfig up: " ^ e));
      let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:9000 in
      let payload = Bytes.make 64 'c' in
      let malformed () =
        match Supervisor.chan sv with
        | Some c -> Sud_obs.Metrics.get (Uchan.metrics c).Uchan.um_malformed_frames
        | None -> 0
      in
      Alcotest.(check bool) "injection armed" true
        (Fault_inject.inject ~sv Fault_inject.Corrupt_batch);
      Alcotest.(check bool) "corrupt_batch is the non-lethal class" false
        (Fault_inject.lethal Fault_inject.Corrupt_batch);
      (* A wire burst parks several frames in the NIC RX ring before the
         driver's poll runs, so its nc_rx downcalls coalesce into one
         multi-frame batch slot; pump until the armed corruption lands on
         one.  (TX completions in this quiet world free one token at a
         time — too sparse to ever form a batch.) *)
      let peer = Net_medium.attach w.medium ~rx:ignore in
      let wire_frame =
        let b = Bytes.make 64 '\x00' in
        Bytes.blit mac 0 b 0 6;
        Bytes.blit (Skbuff.Mac.of_string "52:54:00:00:00:01") 0 b 6 6;
        b
      in
      let rec pump rounds =
        if malformed () = 0 && rounds > 0 then begin
          for _ = 1 to 8 do Net_medium.send w.medium peer wire_frame done;
          settle w 5;
          pump (rounds - 1)
        end
      in
      pump 50;
      Alcotest.(check int) "one frame dropped as malformed" 1 (malformed ());
      settle w 50;
      Alcotest.(check bool) "still running" true (Supervisor.state sv = Supervisor.Running);
      Alcotest.(check int) "no restart" 0 (Supervisor.stats sv).Supervisor.st_restarts;
      Alcotest.(check int) "no detection" 0 (Supervisor.stats sv).Supervisor.st_detections;
      (* The dropped tx_free cost one pooled buffer, not the datapath:
         frames offered after the corruption still reach the device. *)
      let tx_before = (Netdev.stats dev).Netdev.tx_packets in
      for _ = 1 to 4 do
        ignore
          (Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast ~dst_port:9000
             payload
           : [ `Sent | `Dropped ])
      done;
      settle w 20;
      Alcotest.(check bool) "tx still flows" true
        ((Netdev.stats dev).Netdev.tx_packets >= tx_before + 4);
      Supervisor.stop sv)

(* A crash with a partially-acked batch in flight: whatever the dead
   generation had accepted but not acked dies with it (the paper's
   stance — the network retransmits), and every frame offered from the
   crash until recovery parks in the per-queue backlog and is replayed,
   with the accounting identity intact. *)
let test_mid_batch_crash_tail_replayed () =
  let w = make_world () in
  let policy =
    { fast_policy with
      Supervisor.backoff_initial_ns = 20_000_000;
      backoff_max_ns = 40_000_000;
      (* These tests probe the cold outage window (backlog parks during
         backoff), so the warm standby must stay out of the way. *)
      standby = false }
  in
  Kernel.run w.k (fun () ->
      let sv = start_supervised ~policy w in
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("ifconfig up: " ^ e));
      let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:9000 in
      let payload = Bytes.make 64 'm' in
      let send n =
        for _ = 1 to n do
          ignore
            (Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast ~dst_port:9000
               payload
             : [ `Sent | `Dropped ])
        done
      in
      (* Head of the burst goes to the live driver's batch path... *)
      send 4;
      (* ...and the crash lands before any of it is acked. *)
      (match Supervisor.proc sv with Some p -> Process.kill p | None -> Alcotest.fail "no proc");
      settle w 2;
      Alcotest.(check bool) "recovering" true (Supervisor.state sv = Supervisor.Recovering);
      (* The tail of the burst arrives mid-outage: per-queue backlog. *)
      send 4;
      settle w 100;
      let bl =
        let nm = Netdev.metrics dev in
        { Netdev.bl_offered = Sud_obs.Metrics.get nm.Netdev.nm_bl_offered;
          bl_queued = Sud_obs.Metrics.gauge_value nm.Netdev.nm_bl_queued;
          bl_dropped = Sud_obs.Metrics.get nm.Netdev.nm_bl_dropped;
          bl_replayed = Sud_obs.Metrics.get nm.Netdev.nm_bl_replayed }
      in
      Alcotest.(check bool) "running again" true (Supervisor.state sv = Supervisor.Running);
      Alcotest.(check bool) "tail was parked" true (bl.Netdev.bl_offered >= 4);
      Alcotest.(check int) "backlog accounting exact" bl.Netdev.bl_offered
        (bl.Netdev.bl_queued + bl.Netdev.bl_dropped + bl.Netdev.bl_replayed);
      Alcotest.(check bool) "tail replayed" true (bl.Netdev.bl_replayed >= 4);
      Supervisor.stop sv)

let test_hang_heartbeat () =
  let s = Fault_inject.measure_recovery Fault_inject.Hang in
  Alcotest.(check bool) "hang detected" true (s.Fault_inject.rs_detect_ns > 0);
  Alcotest.(check bool) "detected within heartbeat deadline + slack" true
    (s.Fault_inject.rs_detect_ns <= 50_000_000);
  Alcotest.(check bool) "outage bounded" true
    (s.Fault_inject.rs_outage_ns <= Fault_inject.outage_bound_ns)

let test_crash_loop_quarantine () =
  let q = Fault_inject.crash_loop ~max_restarts:2 () in
  Alcotest.(check int) "budget spent" 2 q.Fault_inject.qr_restarts;
  Alcotest.(check bool) "quarantined" true q.Fault_inject.qr_quarantined;
  Alcotest.(check bool) "netdev unregistered" true q.Fault_inject.qr_netdev_removed;
  Alcotest.(check string) "sysfs state" "quarantined" q.Fault_inject.qr_sysfs_state

(* The plan DSL is a pure function of its seed: identical seeds replay
   identical storms; times stay in-range and sorted. *)
let plan_determinism_test =
  let gen = QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)) in
  QCheck.Test.make ~name:"fault plans are seeded and deterministic" ~count:100
    (QCheck.make gen) (fun seed ->
      let mk () = Fault_inject.random_plan ~seed ~duration_ns:1_000_000_000 ~n:50
          ~faults:Fault_inject.all_faults () in
      let p1 = mk () and p2 = mk () in
      p1 = p2
      && List.length p1 = 50
      && List.for_all
           (fun i -> i.Fault_inject.at_ns >= 0 && i.Fault_inject.at_ns < 1_000_000_000)
           p1
      && List.for_all2 (fun a b -> a.Fault_inject.at_ns <= b.Fault_inject.at_ns)
           (List.filteri (fun i _ -> i < 49) p1)
           (List.tl p1))

(* Restart replay leg of the ordering property: the per-queue backlog the
   supervisor replays through is strictly FIFO per queue, for arbitrary
   interleavings of parked frames — so a flow (which always hashes to the
   same queue) comes back on the wire in its original order. *)
let backlog_replay_order_property =
  QCheck.Test.make ~name:"restart replay preserves per-queue FIFO order" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) (int_range 0 3)))
    (fun queues ->
       let ops =
         { Netdev.ndo_open = (fun () -> Ok ());
           ndo_stop = ignore;
           ndo_start_xmit = (fun ~queue:_ _ -> Netdev.Xmit_ok);
           ndo_do_ioctl = (fun ~cmd:_ ~arg:_ -> Error "n/a") }
       in
       let dev = Netdev.create ~name:"bl0" ~mac:(Bytes.make 6 '\x02') ~ops ~tx_queues:4 () in
       let parked = Array.make 4 [] in
       List.iteri
         (fun i q ->
            let skb = Skbuff.of_bytes (Bytes.make 8 (Char.chr (i land 0xFF))) in
            (match Netdev.backlog_push dev ~queue:q ~limit:128 skb with
             | Netdev.Xmit_ok -> ()
             | Netdev.Xmit_busy -> ());
            parked.(q) <- i land 0xFF :: parked.(q))
         queues;
       let ok = ref true in
       for q = 0 to 3 do
         let rec drain acc =
           match Netdev.backlog_pop dev ~queue:q with
           | None -> List.rev acc
           | Some skb -> drain (Char.code (Bytes.get skb.Skbuff.data 0) :: acc)
         in
         if drain [] <> List.rev parked.(q) then ok := false
       done;
       !ok)

(* Wire leg of the ordering property: frames offered while a supervised
   driver is down park in the per-queue backlog, and the recovered
   generation puts every flow's frames on the wire in offered order (the
   wire may interleave flows, never reorder within one). *)
let backlog_wire_order_property =
  let n_flows = 3 in
  let mk_frame ~flow ~seq =
    let b = Bytes.make (Rss.flow_span + 2) '\x00' in
    Bytes.set_uint16_be b 15 (1000 + flow);
    Bytes.set_uint16_be b 17 (7 * (flow + 1));
    Bytes.set_uint16_be b Rss.flow_span seq;
    b
  in
  let gen = QCheck.Gen.(list_size (int_range 1 24) (int_bound (n_flows - 1))) in
  QCheck.Test.make ~name:"backlog replay keeps per-flow order" ~count:6 (QCheck.make gen)
    (fun flows ->
       let w = make_world () in
       let policy =
         { fast_policy with
           Supervisor.backoff_initial_ns = 20_000_000;
           backoff_max_ns = 40_000_000;
           standby = false }
       in
       Kernel.run w.k (fun () ->
           let sv = start_supervised ~policy w in
           let dev = Supervisor.netdev sv in
           (match Netstack.ifconfig_up w.k.Kernel.net dev with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("ifconfig up: " ^ e));
           let seen = ref [] in
           ignore
             (Net_medium.attach w.medium ~rx:(fun f ->
                  if Bytes.length f >= Rss.flow_span + 2 then begin
                    let flow = Bytes.get_uint16_be f 15 - 1000 in
                    if flow >= 0 && flow < n_flows then
                      seen := (flow, Bytes.get_uint16_be f Rss.flow_span) :: !seen
                  end)
              : Net_medium.port);
           (match Supervisor.proc sv with
            | Some p -> Process.kill p
            | None -> Alcotest.fail "no proc");
           settle w 2;
           if Supervisor.state sv <> Supervisor.Recovering then Alcotest.fail "not recovering";
           let queues = Netdev.tx_queues dev in
           let offered = Array.make n_flows [] in
           List.iteri
             (fun i flow ->
                let frame = mk_frame ~flow ~seq:i in
                offered.(flow) <- i :: offered.(flow);
                match
                  Netdev.backlog_push dev ~queue:(Rss.queue_for ~queues frame) ~limit:256
                    (Skbuff.of_bytes frame)
                with
                | Netdev.Xmit_ok -> ()
                | Netdev.Xmit_busy -> Alcotest.fail "unexpected backlog overflow")
             flows;
           settle w 100;
           if Supervisor.state sv <> Supervisor.Running then Alcotest.fail "not recovered";
           Supervisor.stop sv;
           let replayed = Array.make n_flows [] in
           List.iter (fun (flow, seq) -> replayed.(flow) <- seq :: replayed.(flow))
             (List.rev !seen);
           Array.for_all2 (fun o r -> o = r) offered replayed))

(* Satellite property: N seeded fault cycles under traffic leave no
   containment residue.  [Fault_inject.soak] asserts at every driver death
   that the kernel secret page is untouched, the dead grant is revoked, the
   IOMMU domain is detached and no stale IOTLB entry answers; here we also
   re-check the terminal state and the backlog identity. *)
let fault_cycle_property =
  let gen = QCheck.Gen.(map Int64.of_int (int_range 1 10_000)) in
  QCheck.Test.make ~name:"seeded fault cycles leave no containment residue" ~count:3
    (QCheck.make gen) (fun seed ->
      let r = Fault_inject.soak ~seed ~n_faults:30 ~duration_ms:600 () in
      r.Fault_inject.sr_violations = []
      && r.Fault_inject.sr_state = Supervisor.Running
      && r.Fault_inject.sr_applied = r.Fault_inject.sr_planned
      && r.Fault_inject.sr_deaths = r.Fault_inject.sr_detections
      && r.Fault_inject.sr_backlog.Netdev.bl_offered
         = r.Fault_inject.sr_backlog.Netdev.bl_queued
           + r.Fault_inject.sr_backlog.Netdev.bl_dropped
           + r.Fault_inject.sr_backlog.Netdev.bl_replayed
      && r.Fault_inject.sr_max_outage_ns <= Fault_inject.outage_bound_ns)

let suite =
  [ Alcotest.test_case "supervised driver starts running" `Quick test_starts_running;
    Alcotest.test_case "kill -9 → autonomous restart" `Quick test_kill_auto_restart;
    Alcotest.test_case "outage backlog parked and replayed" `Quick test_backlog_replayed;
    Alcotest.test_case "up/down survives kills (cold)" `Quick
      (test_updown_across_kills ~standby:false);
    Alcotest.test_case "up/down survives kills (warm)" `Quick
      (test_updown_across_kills ~standby:true);
    Alcotest.test_case "corrupt batch frame: contained, no restart" `Quick
      test_batch_corrupt_no_restart;
    Alcotest.test_case "mid-batch crash: un-acked tail replayed" `Quick
      test_mid_batch_crash_tail_replayed;
    Alcotest.test_case "wedged main loop caught by heartbeat" `Quick test_hang_heartbeat;
    Alcotest.test_case "crash loop exhausts budget → quarantine" `Quick
      test_crash_loop_quarantine ]
  @ List.map QCheck_alcotest.to_alcotest
      [ plan_determinism_test; backlog_replay_order_property; backlog_wire_order_property;
        fault_cycle_property ]
