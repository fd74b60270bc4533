(* The warm-standby generation machinery: fast failover served by a
   pre-forked parked generation, zero-loss live upgrade, the poisoned
   standby discarded and rebuilt rather than installed, and the double
   failover (primary dies mid-upgrade-drain).  A QCheck property then
   mixes upgrades and poisons into the random crash schedules and holds
   the stack to the same durability oracle as the cold path. *)

let warm = Fault_inject.warm_policy ~max_restarts:10

let start_warm w =
  match
    Supervisor.start_blk w.Fault_inject.bw_k w.Fault_inject.bw_sp ~policy:warm
      ~bdf:w.Fault_inject.bw_bdf Fault_inject.honest_blk_factory
  with
  | Ok sv -> sv
  | Error e -> Alcotest.fail ("supervised start: " ^ e)

let blkdev sv = Option.get (Supervisor.blkdev sv)
let page c = Bytes.make Blkdev.page_size c

let write_page bd p c =
  match Blkdev.write bd ~lba:(p * Blkdev.page_sectors) (page c) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write page %d: %s" p e

let fsync bd =
  match Blkdev.fsync bd () with Ok () -> () | Error e -> Alcotest.fail ("fsync: " ^ e)

let check_page bd p c =
  match Blkdev.read bd ~lba:(p * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors () with
  | Ok data ->
    Alcotest.(check string)
      (Printf.sprintf "page %d intact across the swap" p)
      (Bytes.to_string (page c)) (Bytes.to_string data)
  | Error e -> Alcotest.failf "read page %d: %s" p e

(* A crash is only detected at the watchdog's next tick, so "state is
   Running" right after an injection means "not yet detected" — wait
   for the restart counter instead. *)
let wait_restarts ~eng sv n ~budget_ms =
  Fiber.poll eng ~every_ns:1_000_000 ~budget:budget_ms (fun () ->
      (Supervisor.stats sv).Supervisor.st_restarts >= n
      && Supervisor.state sv = Supervisor.Running)

let wait_poisoned ~eng sv n ~budget_ms =
  Fiber.poll eng ~every_ns:1_000_000 ~budget:budget_ms (fun () ->
      snd (Supervisor.standby_stats sv) >= n)

let sud_state w =
  match Sysfs.find_bdf w.Fault_inject.bw_k.Kernel.sysfs w.Fault_inject.bw_bdf with
  | Some e -> Option.value ~default:"" (Sysfs.attr e "sud_state")
  | None -> ""

(* A lethal fault with a warm slot parked: the recovery must be served
   by the standby (one restart, one warm swap), the fsynced data must
   survive, and the next standby must park again afterwards. *)
let test_warm_failover () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let sv = start_warm w in
      let bd = blkdev sv in
      write_page bd 0 'A';
      write_page bd 1 'B';
      fsync bd;
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      Alcotest.(check string) "sysfs shows the parked standby" "standby_ready"
        (sud_state w);
      Alcotest.(check bool) "crash applied" true
        (Fault_inject.blk_inject ~eng ~sv ~nvme:w.Fault_inject.bw_nvme
           Fault_inject.Bcrash);
      Alcotest.(check bool) "recovered" true (wait_restarts ~eng sv 1 ~budget_ms:5_000);
      Alcotest.(check int) "one restart" 1 (Supervisor.stats sv).Supervisor.st_restarts;
      Alcotest.(check int) "served by the warm standby" 1 (Supervisor.warm_swaps sv);
      check_page bd 0 'A';
      check_page bd 1 'B';
      write_page bd 2 'C';
      fsync bd;
      check_page bd 2 'C';
      Alcotest.(check bool) "next standby parks after the swap" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      (* The dead generation's rings left the ledger with its table: what
         remains is the live generation's plus the parked standby's,
         which mirrors the live queue width. *)
      let live = Option.get (Supervisor.current_blk sv) in
      let live_rings =
        List.fold_left
          (fun n e -> match Quota.cap e with Quota.Rings r -> n + r.bytes | _ -> n)
          0
          (Quota.held (Safe_pci.grant_caps (Driver_host.grant live)))
      in
      let standby_rings = Quota.ring_bytes ~slots:256 ~queues:(Driver_host.queues live) in
      Alcotest.(check int) "ledger ring bytes = live + standby" (live_rings + standby_rings)
        (Quota.uchan_bytes (Supervisor.quota sv));
      Supervisor.stop sv)

(* The kinds in a generation's capability table, newest first. *)
let cap_kinds g =
  List.map
    (fun e ->
       match Quota.cap e with
       | Quota.Grant -> "grant"
       | Quota.Dma _ -> "dma"
       | Quota.Io_ports _ -> "io_ports"
       | Quota.Vectors _ -> "vectors"
       | Quota.Rings _ -> "rings")
    (Quota.held (Safe_pci.grant_caps (Driver_host.grant g)))

(* Cold or warm, a generation is a prefork and then an activate: the
   first generation, launched cold, and the warm standby that replaces
   it hold one table in one order, so both die the same way. *)
let test_one_table () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let sv = start_warm w in
      let cold = cap_kinds (Option.get (Supervisor.current_blk sv)) in
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      Alcotest.(check bool) "crash applied" true
        (Fault_inject.blk_inject ~eng ~sv ~nvme:w.Fault_inject.bw_nvme Fault_inject.Bcrash);
      Alcotest.(check bool) "recovered" true (wait_restarts ~eng sv 1 ~budget_ms:5_000);
      Alcotest.(check int) "served by the warm standby" 1 (Supervisor.warm_swaps sv);
      Alcotest.(check (list string)) "one table" cold
        (cap_kinds (Option.get (Supervisor.current_blk sv)));
      Supervisor.stop sv)

(* A standby that dies while parked is poisoned: it must be discarded
   and rebuilt by the watchdog — and the corpse must never become the
   live generation. *)
let test_poisoned_standby_rebuilt () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let sv = start_warm w in
      let bd = blkdev sv in
      write_page bd 0 'P';
      fsync bd;
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      let corpse = Option.get (Supervisor.standby_proc sv) in
      Alcotest.(check bool) "poison applied" true (Fault_inject.inject_standby_poison ~sv);
      (* The watchdog's next probe discards the corpse and warms a
         replacement. *)
      Alcotest.(check bool) "poison was counted" true
        (wait_poisoned ~eng sv 1 ~budget_ms:2_000);
      Alcotest.(check bool) "replacement parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      Alcotest.(check bool) "replacement is a fresh process" true
        (Option.get (Supervisor.standby_proc sv) != corpse);
      Alcotest.(check bool) "crash applied" true
        (Fault_inject.blk_inject ~eng ~sv ~nvme:w.Fault_inject.bw_nvme
           Fault_inject.Bcrash);
      Alcotest.(check bool) "recovered" true (wait_restarts ~eng sv 1 ~budget_ms:5_000);
      Alcotest.(check bool) "the corpse never became the live generation" true
        (match Supervisor.proc sv with
         | Some p -> p != corpse && Process.is_alive p
         | None -> false);
      check_page bd 0 'P';
      Supervisor.stop sv)

(* Double failover: the primary dies while the upgrade is draining its
   in-flight work.  The swap must proceed anyway and the undrained
   write must replay — acked data survives the worst-timed death. *)
let test_double_failover () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let k = w.Fault_inject.bw_k in
      let sv = start_warm w in
      let bd = blkdev sv in
      write_page bd 0 'D';
      fsync bd;
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      (* Arm the device to drop the next write completion, then issue
         that write from a fiber: it sticks in flight, so the upgrade's
         drain loop is guaranteed to still be waiting when the killer
         fires. *)
      Nvme_dev.inject_drop_completion w.Fault_inject.bw_nvme;
      let stuck_done = ref None in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"stuck-writer"
           (fun () ->
              stuck_done :=
                Some (Blkdev.write bd ~lba:(1 * Blkdev.page_sectors) (page 'E') ()))
         : Fiber.t);
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"killer"
           (fun () ->
              ignore (Fiber.sleep eng 2_000_000 : Fiber.wake);
              match Supervisor.proc sv with
              | Some p when Process.is_alive p -> Process.kill p
              | Some _ | None -> ())
         : Fiber.t);
      (match Supervisor.upgrade sv with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("upgrade through the double failover: " ^ e));
      Alcotest.(check bool) "running after the double failover" true
        (Fault_inject.wait_running ~eng sv ~budget_ms:5_000);
      (* The undrained write replays on resume and completes. *)
      let deadline = Engine.now eng + 5_000_000_000 in
      while !stuck_done = None && Engine.now eng < deadline do
        ignore (Fiber.sleep eng 500_000 : Fiber.wake)
      done;
      (match !stuck_done with
       | Some (Ok ()) -> ()
       | Some (Error e) -> Alcotest.fail ("replayed write failed: " ^ e)
       | None -> Alcotest.fail "in-flight write never completed after the swap");
      fsync bd;
      check_page bd 0 'D';
      check_page bd 1 'E';
      Supervisor.stop sv)

(* A stop that lands while an upgrade drains is final: the upgrade
   fails without quarantining, no generation comes up after the stop,
   and the blkdev stays detached. *)
let test_stop_during_upgrade () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let k = w.Fault_inject.bw_k in
      let sv = start_warm w in
      let bd = blkdev sv in
      let uid = Process.uid (Option.get (Supervisor.proc sv)) in
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      (* A dropped completion keeps a write in flight, so the drain is
         still waiting when the stop lands. *)
      Nvme_dev.inject_drop_completion w.Fault_inject.bw_nvme;
      let spawn name f =
        ignore (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name f : Fiber.t)
      in
      spawn "stuck-writer" (fun () ->
          ignore (Blkdev.write_fua bd ~lba:0 (page 'S') () : (unit, string) result));
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      let stopped_at = ref max_int in
      spawn "stopper" (fun () ->
          ignore (Fiber.sleep eng 2_000_000 : Fiber.wake);
          stopped_at := Engine.now eng;
          Supervisor.stop sv);
      Alcotest.(check bool) "the upgrade fails" true (Result.is_error (Supervisor.upgrade sv));
      ignore (Fiber.sleep eng 100_000_000 : Fiber.wake);
      (* The stop ends the drain: nothing resets the device after it. *)
      let resets_after =
        List.filter (fun (ts, _, _) -> ts >= !stopped_at)
          (Klog.matching k.Kernel.klog "function-level reset")
      in
      Alcotest.(check int) "no reset after the stop" 0 (List.length resets_after);
      Alcotest.(check bool) "still stopped" true (Supervisor.state sv = Supervisor.Stopped);
      Alcotest.(check bool) "no current generation" true (Supervisor.proc sv = None);
      let rec live_drivers pid n =
        if pid > 256 then n
        else
          match Process.find k.Kernel.procs ~pid with
          | Some p when Process.is_alive p && Process.uid p = uid -> live_drivers (pid + 1) (n + 1)
          | Some _ | None -> live_drivers (pid + 1) n
      in
      Alcotest.(check int) "no driver process runs" 0 (live_drivers 1 0);
      Alcotest.(check bool) "blkdev detached" false (Blkdev.attached bd))

(* Live upgrade under load: zero loss, not a detection, and the sysfs
   state walks running -> upgrading -> standby_ready. *)
let test_upgrade_zero_loss () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:120_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let k = w.Fault_inject.bw_k in
      let sv = start_warm w in
      let bd = blkdev sv in
      for p = 0 to 7 do
        write_page bd p (Char.chr (0x61 + p))
      done;
      fsync bd;
      Alcotest.(check bool) "standby parks Ready" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      (* Keep writes in flight so the drain window is observable, and
         sample sud_state from a monitor fiber while it is. *)
      let states = ref [] and stop = ref false in
      let note s = if s <> "" && not (List.mem s !states) then states := s :: !states in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"monitor"
           (fun () ->
              while not !stop do
                note (sud_state w);
                ignore (Fiber.sleep eng 20_000 : Fiber.wake)
              done)
         : Fiber.t);
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"load"
           (fun () ->
              let n = ref 0 in
              while not !stop do
                incr n;
                ignore
                  (Blkdev.write bd ~lba:((8 + (!n mod 8)) * Blkdev.page_sectors)
                     (page 'z') ()
                   : (unit, string) result);
                ignore (Fiber.sleep eng 50_000 : Fiber.wake)
              done)
         : Fiber.t);
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      (match Supervisor.upgrade sv with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("upgrade: " ^ e));
      Alcotest.(check bool) "running after upgrade" true
        (Fault_inject.wait_running ~eng sv ~budget_ms:5_000);
      Alcotest.(check bool) "rewarmed standby parks" true
        (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      stop := true;
      let st = Supervisor.stats sv in
      Alcotest.(check int) "one upgrade" 1 st.Supervisor.st_upgrades;
      Alcotest.(check int) "an upgrade is not a detection" 0 st.Supervisor.st_detections;
      Alcotest.(check int) "an upgrade is not a restart" 0 st.Supervisor.st_restarts;
      Alcotest.(check bool) "sysfs walked through upgrading" true
        (List.mem "upgrading" !states);
      Alcotest.(check string) "sysfs ends on the rewarmed standby" "standby_ready"
        (sud_state w);
      fsync bd;
      for p = 0 to 7 do
        check_page bd p (Char.chr (0x61 + p))
      done;
      Supervisor.stop sv)

(* Upgrades compose with faults: mix live upgrades and standby poisons
   into the random write/fsync/crash schedules and hold media to the
   same oracle — a write acked before a successful fsync survives
   whatever the schedule did. *)

type uop = Uwrite of int * char | Ufsync | Ucrash | Uupgrade | Upoison

let uop_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun p c -> Uwrite (p, Char.chr (0x41 + c))) (int_bound 7) (int_bound 25));
        (2, return Ufsync);
        (1, return Ucrash);
        (1, return Uupgrade);
        (1, return Upoison) ])

let uops_gen = QCheck.Gen.(list_size (int_range 1 12) uop_gen)

let pp_uop = function
  | Uwrite (p, c) -> Printf.sprintf "write %d '%c'" p c
  | Ufsync -> "fsync"
  | Ucrash -> "crash"
  | Uupgrade -> "upgrade"
  | Upoison -> "poison"

let run_schedule ops =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:60_000 w.Fault_inject.bw_k (fun () ->
      let eng = w.Fault_inject.bw_eng in
      let sv = start_warm w in
      let bd = blkdev sv in
      let synced = Array.make 8 None in
      let acked = Array.make 8 None in
      let failures = ref [] in
      let wait_running () =
        let deadline = Engine.now eng + 5_000_000_000 in
        while Supervisor.state sv <> Supervisor.Running && Engine.now eng < deadline do
          ignore (Fiber.sleep eng 500_000 : Fiber.wake)
        done
      in
      List.iter
        (fun op ->
           match op with
           | Uwrite (p, c) ->
             (match
                Blkdev.write bd ~lba:(p * Blkdev.page_sectors)
                  (Bytes.make Blkdev.page_size c) ()
              with
              | Ok () -> acked.(p) <- Some c
              | Error e -> failures := Printf.sprintf "write %d: %s" p e :: !failures)
           | Ufsync ->
             (match Blkdev.fsync bd () with
              | Ok () ->
                Array.iteri
                  (fun p v -> match v with Some c -> synced.(p) <- Some c | None -> ())
                  acked
              | Error e -> failures := Printf.sprintf "fsync: %s" e :: !failures)
           | Ucrash ->
             let r0 = (Supervisor.stats sv).Supervisor.st_restarts in
             if
               Fault_inject.blk_inject ~eng ~sv ~nvme:w.Fault_inject.bw_nvme
                 Fault_inject.Bcrash
             then ignore (wait_restarts ~eng sv (r0 + 1) ~budget_ms:5_000 : bool)
             else wait_running ()
           | Uupgrade ->
             ignore (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
             (match Supervisor.upgrade sv with
              | Ok () -> ()
              | Error e -> failures := ("upgrade: " ^ e) :: !failures);
             wait_running ()
           | Upoison ->
             ignore (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
             ignore (Fault_inject.inject_standby_poison ~sv : bool))
        ops;
      wait_running ();
      (match Blkdev.fsync bd () with
       | Ok () ->
         Array.iteri
           (fun p v -> match v with Some c -> synced.(p) <- Some c | None -> ())
           acked
       | Error e -> failures := Printf.sprintf "final fsync: %s" e :: !failures);
      Array.iteri
        (fun p expect ->
           match expect with
           | None -> ()
           | Some c ->
             for s = 0 to Blkdev.page_sectors - 1 do
               let lba = (p * Blkdev.page_sectors) + s in
               match Nvme_dev.media_sector w.Fault_inject.bw_nvme ~lba with
               | Some b when Bytes.to_string b = String.make Blkdev.sector_size c -> ()
               | Some _ ->
                 failures :=
                   Printf.sprintf "page %d sector %d: stale media" p lba :: !failures
               | None ->
                 failures :=
                   Printf.sprintf "page %d sector %d: synced write lost" p lba :: !failures
             done)
        synced;
      Supervisor.stop sv;
      !failures)

let prop_upgrades_compose =
  QCheck.Test.make ~name:"upgrades compose with faults: no fsynced write is lost"
    ~count:8
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_uop ops)) uops_gen)
    (fun ops ->
       match run_schedule ops with
       | [] -> true
       | fs -> QCheck.Test.fail_reportf "oracle violated:@.%s" (String.concat "\n" fs))

let suite =
  [ Alcotest.test_case "warm failover: crash swaps to the parked standby" `Quick
      test_warm_failover;
    Alcotest.test_case "poisoned standby is discarded and rebuilt, never installed"
      `Quick test_poisoned_standby_rebuilt;
    Alcotest.test_case "double failover: primary dies mid-upgrade-drain" `Quick
      test_double_failover;
    Alcotest.test_case "stop during an upgrade's drain is final" `Quick
      test_stop_during_upgrade;
    Alcotest.test_case "live upgrade: zero loss, not a detection, sysfs transitions"
      `Quick test_upgrade_zero_loss;
    Alcotest.test_case "cold and warm generations hold one table" `Quick test_one_table;
    QCheck_alcotest.to_alcotest prop_upgrades_compose ]
