(* Checkable scenarios: a named, seeded run of the system under a given
   scheduler policy, fingerprinted so record/replay equality is a single
   comparison.  Two families live here: the canary suite (small worlds
   with deliberately seeded ordering bugs the explorer must find) and
   mini editions of the real adversarial soaks. *)

type outcome = {
  oc_failures : string list;
  oc_trace_hash : int64;
  oc_metrics_hash : int64;
  oc_steps : int;
  oc_points : int;
  oc_decisions : Sched.decision list;
}

type t = {
  sc_name : string;
  sc_descr : string;
  sc_canary : bool;
  sc_run : sched:Sched.spec -> seed:int64 -> outcome;
}

let failed oc = oc.oc_failures <> []

(* ---- canary plumbing ---- *)

let canary_outcome eng (r : Sched.recorder) fails =
  { oc_failures = List.rev fails;
    oc_trace_hash = Engine.trace_hash eng;
    oc_metrics_hash = Sud_obs.Metrics.snapshot_hash ();
    oc_steps = Engine.steps eng;
    oc_points = r.Sched.rec_points;
    oc_decisions = Sched.decisions r }

let schedule_now eng fn = ignore (Engine.schedule_now eng fn : Engine.handle)
let schedule_after eng d fn = ignore (Engine.schedule_after eng d fn : Engine.handle)

(* Canary 1 — doorbell_vs_publish.  The "driver" publishes a slot and
   rings the doorbell as two same-instant events; the handler assumes
   delivery order and reads the slot unconditionally.  FIFO delivers
   publish-then-doorbell (program order); a single reordering makes the
   doorbell observe the stale slot.  Depth-1 bug: one deviation. *)
let run_doorbell_vs_publish ~sched ~seed:_ =
  let eng = Engine.create () in
  let r = Sched.install eng sched in
  let slot = ref 0 in
  let fails = ref [] in
  let rounds = 10 in
  for i = 1 to rounds do
    schedule_after eng (i * 1_000) (fun () ->
        schedule_now eng (fun () -> slot := i);
        schedule_now eng (fun () ->
            if !slot <> i then
              fails :=
                Printf.sprintf "round %d: doorbell delivered before slot %d was published"
                  i i
                :: !fails);
        (* unrelated same-instant chatter widens the ready set, so the
           explorer has real noise to shrink away *)
        schedule_now eng ignore)
  done;
  Engine.run eng;
  canary_outcome eng r !fails

(* Canary 2 — quiesce_vs_handoff.  Round [i] quiesces the old generation
   (two same-instant events: quiesce, then the handoff ack that assumes
   it) and later commits the new generation (commit, then a completion
   that assumes it).  The invariant only breaks when BOTH assumed orders
   are violated in the same round — a depth-2 bug that needs a
   preemption budget of 2 (or two lucky random picks). *)
let run_quiesce_vs_handoff ~sched ~seed:_ =
  let eng = Engine.create () in
  let r = Sched.install eng sched in
  let fails = ref [] in
  let rounds = 8 in
  for i = 1 to rounds do
    let quiesced = ref false in
    let acked_early = ref false in
    schedule_after eng (i * 2_000) (fun () ->
        schedule_now eng (fun () -> quiesced := true);
        schedule_now eng (fun () -> if not !quiesced then acked_early := true);
        schedule_now eng ignore);
    schedule_after eng ((i * 2_000) + 500) (fun () ->
        let committed = ref false in
        schedule_now eng (fun () -> committed := true);
        schedule_now eng (fun () ->
            if !acked_early && not !committed then
              fails :=
                Printf.sprintf
                  "round %d: handoff acked before quiesce and completion raced the commit"
                  i
                :: !fails))
  done;
  Engine.run eng;
  canary_outcome eng r !fails

(* Canary 3 — stale_wakeup.  A consumer fiber parks on a Waitq and, on
   wakeup, consumes without re-checking that the publish actually landed
   — trusting that publish precedes doorbell precedes its own resumption.
   The failing interleaving needs the doorbell hoisted over the publish
   AND the resumption hoisted over it too (the resumption is itself an
   engine event, so this exercises the Fiber/Sync wake path under
   reordering). *)
let run_stale_wakeup ~sched ~seed:_ =
  let eng = Engine.create () in
  let r = Sched.install eng sched in
  let fails = ref [] in
  let wq = Sync.Waitq.create () in
  let published = ref 0 in
  let consumed = ref 0 in
  let stop = ref false in
  let rounds = 10 in
  ignore
    (Fiber.spawn eng ~name:"consumer" (fun () ->
         while not !stop do
           match Sync.Waitq.wait wq with
           | Fiber.Normal ->
             if not !stop then
               if !published <= !consumed then
                 fails :=
                   Printf.sprintf "wakeup %d consumed a slot nobody had published yet"
                     (!consumed + 1)
                   :: !fails
               else incr consumed
           | Fiber.Interrupted | Fiber.Timeout -> ()
         done)
     : Fiber.t);
  for i = 1 to rounds do
    schedule_after eng (i * 1_000) (fun () ->
        schedule_now eng (fun () -> incr published);
        schedule_now eng (fun () -> ignore (Sync.Waitq.signal wq : bool)))
  done;
  schedule_after eng ((rounds + 1) * 1_000) (fun () ->
      stop := true;
      ignore (Sync.Waitq.broadcast wq : int));
  Engine.run eng;
  canary_outcome eng r !fails

(* ---- mini soaks: the real adversarial harnesses, small enough to be a
   schedule-exploration target ---- *)

let outcome_of_summary violations (ss : Fault_inject.sched_summary) =
  { oc_failures = violations;
    oc_trace_hash = ss.Fault_inject.ss_trace_hash;
    oc_metrics_hash = ss.ss_metrics_hash;
    oc_steps = ss.ss_steps;
    oc_points = ss.ss_points;
    oc_decisions = ss.ss_decisions }

let crashed e =
  { oc_failures = [ "exception: " ^ Printexc.to_string e ];
    oc_trace_hash = 0L;
    oc_metrics_hash = 0L;
    oc_steps = 0;
    oc_points = 0;
    oc_decisions = [] }

let run_mini_soak ~sched ~seed =
  try
    let r = Fault_inject.soak ~sched ~seed ~n_faults:12 ~duration_ms:400 () in
    outcome_of_summary r.Fault_inject.sr_violations r.sr_sched
  with e -> crashed e

let run_mini_blk_soak ~sched ~seed =
  try
    let r = Fault_inject.blk_soak ~sched ~seed ~n_faults:8 ~duration_ms:400 () in
    outcome_of_summary r.Fault_inject.bsr_violations r.bsr_sched
  with e -> crashed e

let run_mini_fuzz ~sched ~seed =
  try
    let r = Proto_fuzz.campaign ~sched ~seed ~n_mutations:36 () in
    outcome_of_summary r.Proto_fuzz.fz_violations r.fz_sched
  with e -> crashed e

(* fsync-overlap: four fibers rewrite page 0 of a supervised NVMe, two
   with write + fsync and two with write_fua, no fault injected.  They
   start together and yield between rounds.  Each write stamps every
   sector with a fresh version, taken when the bytes enter the page
   cache, so versions follow the cache's order.  After each
   acknowledged fsync or FUA write, media must hold at least the version
   that call wrote.  The device does not order the commands it holds,
   so two writes of page 0 on the wire at once could land oldest last. *)
let overlap_rounds = 6

let stamp v =
  let data = Bytes.make Blkdev.page_size '\x5a' in
  for s = 0 to Blkdev.page_sectors - 1 do
    Bytes.set_int64_le data (s * Blkdev.sector_size) (Int64.of_int v)
  done;
  data

(* The oldest version among page 0's sectors on media; 0 if any sector
   was never persisted. *)
let media_version nvme =
  let rec go s acc =
    if s = Blkdev.page_sectors then acc
    else
      match Nvme_dev.media_sector nvme ~lba:s with
      | None -> 0
      | Some sec -> go (s + 1) (min acc (Int64.to_int (Bytes.get_int64_le sec 0)))
  in
  go 0 max_int

let run_fsync_overlap ~sched ~seed:_ =
  try
    let w = Fault_inject.make_blk_world () in
    let eng = w.Fault_inject.bw_eng in
    let r = Sched.install eng sched in
    let fails = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
    Kernel.run w.bw_k (fun () ->
        match
          Supervisor.start_blk w.bw_k w.bw_sp
            ~policy:(Fault_inject.soak_policy ~max_restarts:max_int)
            ~bdf:w.bw_bdf Fault_inject.honest_blk_factory
        with
        | Error e -> fail "start: %s" e
        | Ok sv ->
          let bd = Option.get (Supervisor.blkdev sv) in
          let version = ref 0 and running = ref 4 in
          for i = 0 to 3 do
            let fua = i mod 2 = 1 in
            ignore
              (Fiber.spawn eng (fun () ->
                   for _ = 1 to overlap_rounds do
                     ignore (Fiber.sleep eng 0 : Fiber.wake);
                     incr version;
                     let v = !version in
                     let data = stamp v in
                     let acked =
                       if fua then Blkdev.write_fua bd ~lba:0 data ()
                       else
                         Result.bind (Blkdev.write bd ~lba:0 data ()) (fun () ->
                             Blkdev.fsync bd ())
                     in
                     match acked with
                     | Error e -> fail "writer %d, version %d: %s" i v e
                     | Ok () ->
                       let on_media = media_version w.bw_nvme in
                       if on_media < v then
                         fail "writer %d: %s of version %d acknowledged, media holds %d" i
                           (if fua then "FUA write" else "fsync") v on_media
                   done;
                   decr running)
               : Fiber.t)
          done;
          if not (Fiber.poll eng ~every_ns:1_000_000 ~budget:1_000 (fun () -> !running = 0)) then
            fail "writers still running after 1 s";
          Supervisor.stop sv);
    canary_outcome eng r !fails
  with e -> crashed e

let all =
  [ { sc_name = "doorbell_vs_publish";
      sc_descr = "notify handled before the slot publish it assumes (depth 1)";
      sc_canary = true;
      sc_run = run_doorbell_vs_publish };
    { sc_name = "quiesce_vs_handoff";
      sc_descr = "handoff ack and commit completion both hoisted (depth 2)";
      sc_canary = true;
      sc_run = run_quiesce_vs_handoff };
    { sc_name = "stale_wakeup";
      sc_descr = "Waitq wakeup trusts publish/doorbell order (fiber wake path)";
      sc_canary = true;
      sc_run = run_stale_wakeup };
    { sc_name = "mini-soak";
      sc_descr = "12-fault net supervision soak under explored schedules";
      sc_canary = false;
      sc_run = run_mini_soak };
    { sc_name = "mini-blk-soak";
      sc_descr = "8-fault storage soak with the crash-consistency oracle";
      sc_canary = false;
      sc_run = run_mini_blk_soak };
    { sc_name = "mini-fuzz";
      sc_descr = "36-mutation Byzantine protocol campaign";
      sc_canary = false;
      sc_run = run_mini_fuzz };
    { sc_name = "fsync-overlap";
      sc_descr = "four writers of one page: acked fsync and FUA writes never regress on media";
      sc_canary = false;
      sc_run = run_fsync_overlap } ]

let canaries = List.filter (fun s -> s.sc_canary) all

let find name = List.find_opt (fun s -> s.sc_name = name) all
