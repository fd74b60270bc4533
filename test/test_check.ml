(* sud-check: canaries, exploration, record/replay determinism, shrinking. *)

let root = 0xC4EC_0001L

(* Every canary must be clean under the default FIFO policy — the bugs
   are ordering bugs, not logic bugs. *)
let test_fifo_clean () =
  List.iter
    (fun (sc : Scenario.t) ->
       let oc = sc.Scenario.sc_run ~sched:Sched.Fifo ~seed:(Explore.scenario_seed ~root sc) in
       Alcotest.(check (list string)) (sc.sc_name ^ " clean under FIFO") []
         oc.Scenario.oc_failures;
       Alcotest.(check bool) (sc.sc_name ^ " offered choice points") true
         (oc.oc_points > 0))
    Scenario.canaries

(* Random exploration finds every canary within the smoke budget. *)
let test_random_explore_finds () =
  List.iter
    (fun (sc : Scenario.t) ->
       let r = Explore.random sc ~root_seed:root ~budget:200 in
       Alcotest.(check bool) (sc.sc_name ^ " FIFO baseline clean") true r.Explore.ex_fifo_clean;
       Alcotest.(check bool) (sc.sc_name ^ " found by random explore") true
         (r.ex_found <> None))
    Scenario.canaries

(* Bounded systematic exploration with a preemption budget of 2 finds
   the depth-1 and depth-2 canaries. *)
let test_bounded_explore_finds () =
  List.iter
    (fun name ->
       let sc = Option.get (Scenario.find name) in
       let r = Explore.bounded ~max_preemptions:2 sc ~root_seed:root ~budget:400 in
       Alcotest.(check bool) (name ^ " found by bounded explore") true (r.Explore.ex_found <> None))
    [ "doorbell_vs_publish"; "quiesce_vs_handoff" ]

(* Four writers of page 0, two fsyncing and two writing FUA: no
   explored schedule lets an acknowledged call find media older than
   the version it wrote. *)
let test_fsync_overlap_explored () =
  let sc = Option.get (Scenario.find "fsync-overlap") in
  let r = Explore.random ~p_preempt:30 sc ~root_seed:root ~budget:40 in
  Alcotest.(check bool) "FIFO baseline clean" true r.Explore.ex_fifo_clean;
  match r.ex_found with
  | None -> ()
  | Some f ->
    Alcotest.failf "schedule %d: %s" f.Explore.fd_run
      (String.concat "; " f.fd_outcome.Scenario.oc_failures)

(* Strict replay on a raw engine: re-executes bit-for-bit, and a
   tampered decision list is reported as divergence. *)
let test_strict_replay () =
  let build () =
    let eng = Engine.create () in
    for i = 1 to 6 do
      ignore
        (Engine.schedule_after eng (i * 100) (fun () ->
             for _ = 1 to 3 do
               ignore (Engine.schedule_now eng ignore : Engine.handle)
             done)
         : Engine.handle)
    done;
    eng
  in
  let eng1 = build () in
  let r1 = Sched.install eng1 (Sched.Random { seed = 7L; p_preempt = 80 }) in
  Engine.run eng1;
  let ds = Sched.decisions r1 in
  Alcotest.(check bool) "recorded decisions" true (ds <> []);
  let eng2 = build () in
  let r2 = Sched.install ~strict:true eng2 (Sched.Replay ds) in
  Engine.run eng2;
  Alcotest.(check (option string)) "strict replay aligned" None r2.Sched.rec_divergence;
  Alcotest.(check int64) "strict replay same trace hash" (Engine.trace_hash eng1)
    (Engine.trace_hash eng2);
  let tampered =
    match ds with d :: tl -> { d with Sched.d_ready = d.Sched.d_ready + 7 } :: tl | [] -> []
  in
  let eng3 = build () in
  let r3 = Sched.install ~strict:true eng3 (Sched.Replay tampered) in
  Engine.run eng3;
  Alcotest.(check bool) "tampered replay diverges" true (r3.Sched.rec_divergence <> None)

(* Schedule files survive a save/load round-trip. *)
let test_sched_file_roundtrip () =
  let sc = Option.get (Scenario.find "doorbell_vs_publish") in
  let spec = Sched.Random { seed = 99L; p_preempt = 50 } in
  let path = "traces/check_roundtrip.sched.jsonl" in
  let oc, f = Check.record ~path sc ~spec ~seed:42L in
  match Sched.load path with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check string) "scenario" f.Sched.f_scenario g.Sched.f_scenario;
    Alcotest.(check int64) "seed" f.f_seed g.f_seed;
    Alcotest.(check string) "policy" "random" g.f_policy;
    Alcotest.(check int64) "policy seed" 99L g.f_policy_seed;
    Alcotest.(check int) "decisions" (List.length f.f_decisions) (List.length g.f_decisions);
    Alcotest.(check int64) "trace hash" oc.Scenario.oc_trace_hash g.f_trace_hash;
    Alcotest.(check int) "steps" oc.oc_steps g.f_steps

(* Seeds at which the FIFO mini soak once reported a corruption as sent
   but never counted malformed: a corruption armed on a generation that
   died before sending it, and malformed frames lost with a channel that
   a crash had already closed. *)
let test_mini_soak_corruption_accounting () =
  let sc = Option.get (Scenario.find "mini-soak") in
  List.iter
    (fun tag ->
       let oc = sc.Scenario.sc_run ~sched:Sched.Fifo ~seed:(Rng.derive ~root:0x1234L tag) in
       Alcotest.(check (list string)) ("mini soak seed " ^ tag) [] oc.Scenario.oc_failures)
    [ "86"; "96" ]

(* Record, then replay three times from the file: identical trace hash
   every time, and identical metrics snapshots across the reruns. *)
let test_record_replay_file () =
  let sc = Option.get (Scenario.find "stale_wakeup") in
  let spec = Sched.Random { seed = 5L; p_preempt = 60 } in
  let path = "traces/check_replay.sched.jsonl" in
  ignore (Check.record ~path sc ~spec ~seed:7L : Scenario.outcome * Sched.file);
  match Check.replay_file ~file:path ~times:3 with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "trace hashes reproduce" true r.Check.rp_trace_ok;
    Alcotest.(check bool) "metrics snapshots agree" true r.rp_metrics_equal;
    Alcotest.(check int) "three reruns" 3 (List.length r.rp_hashes)

(* QCheck: record-then-replay yields identical trace hash and metrics
   snapshot across random scenario x policy x seed triples. *)
let prop_record_replay =
  QCheck.Test.make ~count:12 ~name:"record/replay deterministic (canaries)"
    QCheck.(triple (int_bound 2) int64 (int_bound 100))
    (fun (si, seed, p) ->
       let sc = List.nth Scenario.canaries si in
       let spec =
         if p = 0 then Sched.Fifo else Sched.Random { seed = Int64.of_int p; p_preempt = p }
       in
       let seed = Int64.logor 1L seed in
       let a = sc.Scenario.sc_run ~sched:spec ~seed in
       let b = sc.Scenario.sc_run ~sched:(Sched.Replay a.Scenario.oc_decisions) ~seed in
       let c = sc.Scenario.sc_run ~sched:(Sched.Replay a.Scenario.oc_decisions) ~seed in
       a.Scenario.oc_trace_hash = b.Scenario.oc_trace_hash
       && b.Scenario.oc_trace_hash = c.Scenario.oc_trace_hash
       && a.oc_metrics_hash = b.oc_metrics_hash
       && b.oc_metrics_hash = c.oc_metrics_hash
       && a.oc_steps = b.oc_steps)

(* The same property through a real adversarial harness: the mini net
   soak (fault plan included in the triple via the seed). *)
let test_record_replay_mini_soak () =
  let sc = Option.get (Scenario.find "mini-soak") in
  let seed = Rng.derive ~root "mini-soak-replay" in
  let spec = Sched.Random { seed = Rng.derive ~root "mini-soak-policy"; p_preempt = 20 } in
  let a = sc.Scenario.sc_run ~sched:spec ~seed in
  Alcotest.(check (list string)) "mini soak clean" [] a.Scenario.oc_failures;
  let b = sc.Scenario.sc_run ~sched:(Sched.Replay a.Scenario.oc_decisions) ~seed in
  Alcotest.(check int64) "trace hash reproduces" a.Scenario.oc_trace_hash
    b.Scenario.oc_trace_hash;
  Alcotest.(check int64) "metrics snapshot reproduces" a.oc_metrics_hash b.oc_metrics_hash;
  Alcotest.(check int) "steps reproduce" a.oc_steps b.oc_steps

(* Shrinker: output still fails and is no larger than the input; for the
   depth-1 canary it must reach the <= 25% gate. *)
let test_shrink () =
  let sc = Option.get (Scenario.find "doorbell_vs_publish") in
  let h = Check.hunt ~budget:200 sc ~root_seed:root in
  match h.Check.hr_shrink with
  | None -> Alcotest.fail "no counterexample found to shrink"
  | Some sh ->
    Alcotest.(check bool) "minimized schedule still fails" true sh.Check.sh_still_fails;
    Alcotest.(check bool) "minimized <= original" true
      (sh.sh_min_events <= sh.sh_orig_events);
    Alcotest.(check bool)
      (Printf.sprintf "ratio %.2f <= 0.25 (orig %d, min %d)" sh.sh_ratio sh.sh_orig_events
         sh.sh_min_events)
      true (sh.sh_ratio <= 0.25);
    (match h.hr_min_file with
     | None -> Alcotest.fail "minimized schedule not saved"
     | Some p ->
       (match Check.replay_file ~file:p ~times:1 with
        | Error e -> Alcotest.fail e
        | Ok r -> Alcotest.(check bool) "min repro replays bit-for-bit" true r.Check.rp_ok))

(* ddmin on a synthetic oracle: minimal subset, monotone test count. *)
let test_ddmin_synthetic () =
  let need = [ 3; 11 ] in
  let test xs = List.for_all (fun n -> List.mem n xs) need in
  let min1, tests = Shrink.ddmin ~test (List.init 16 (fun i -> i)) in
  Alcotest.(check (list int)) "exact minimal subset" need (List.sort compare min1);
  Alcotest.(check bool) "spent some tests" true (tests > 0);
  let keep, t2 = Shrink.ddmin ~test:(fun _ -> false) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "non-reproducing input returned unchanged" [ 1; 2; 3 ] keep;
  Alcotest.(check int) "one probe only" 1 t2

let suite =
  [ Alcotest.test_case "canaries clean under FIFO" `Quick test_fifo_clean;
    Alcotest.test_case "random explore finds every canary" `Quick test_random_explore_finds;
    Alcotest.test_case "bounded explore finds depth-1 and depth-2" `Quick
      test_bounded_explore_finds;
    Alcotest.test_case "random explore: overlapping writes of one page" `Quick
      test_fsync_overlap_explored;
    Alcotest.test_case "strict replay + divergence detection" `Quick test_strict_replay;
    Alcotest.test_case "schedule file round-trip" `Quick test_sched_file_roundtrip;
    Alcotest.test_case "record/replay x3 from file" `Quick test_record_replay_file;
    QCheck_alcotest.to_alcotest prop_record_replay;
    Alcotest.test_case "record/replay through the mini soak" `Slow
      test_record_replay_mini_soak;
    Alcotest.test_case "mini soak counts only sent corruptions" `Quick
      test_mini_soak_corruption_accounting;
    Alcotest.test_case "hunt + shrink the depth-1 canary" `Quick test_shrink;
    Alcotest.test_case "ddmin on a synthetic oracle" `Quick test_ddmin_synthetic ]
