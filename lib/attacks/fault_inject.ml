(* Seeded deterministic fault injection against a supervised driver, and
   the soak harnesses that exercise the supervisor's
   detect → contain → recover loop hundreds of times under live load
   while checking the containment invariants at every driver death.
   One plan DSL, one injector and one recovery measure serve both
   device classes; only the fault vocabularies and the worlds differ. *)

(* ---- fault classes ---- *)

type fault = Crash | Hang | Corrupt_reply | Drop_reply | Dma_violation | Corrupt_batch

let all_faults = [ Crash; Hang; Corrupt_reply; Drop_reply; Dma_violation; Corrupt_batch ]

let fault_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Corrupt_reply -> "corrupt_reply"
  | Drop_reply -> "drop_reply"
  | Dma_violation -> "dma_violation"
  | Corrupt_batch -> "corrupt_batch"

(* A corrupt batch frame is contained in place — the kernel drops that one
   frame and delivers its siblings; nothing escalates to a restart, so
   there is no recovery latency to measure for it. *)
let lethal = function
  | Crash | Hang | Corrupt_reply | Drop_reply | Dma_violation -> true
  | Corrupt_batch -> false

type blk_fault =
  | Bcrash                 (* kill -9 the block driver *)
  | Bhang                  (* wedge its upcall loop *)
  | Corrupt_completion     (* device flips bits in the next CQE's command id *)
  | Drop_completion        (* the next completion evaporates *)
  | Drop_flush             (* the next flush neither persists nor acks *)
  | Crash_mid_barrier      (* kill the driver while a flush is in flight *)

let all_blk_faults =
  [ Bcrash; Bhang; Corrupt_completion; Drop_completion; Drop_flush; Crash_mid_barrier ]

let blk_fault_name = function
  | Bcrash -> "crash"
  | Bhang -> "hang"
  | Corrupt_completion -> "corrupt_completion"
  | Drop_completion -> "drop_completion"
  | Drop_flush -> "drop_flush"
  | Crash_mid_barrier -> "crash_mid_barrier"

(* ---- plan DSL ---- *)

type 'f injection = { at_ns : int; fault : 'f }
type 'f plan = 'f injection list

let random_plan ~seed ~duration_ns ~n ~faults () =
  if n < 0 || duration_ns <= 0 then invalid_arg "Fault_inject.random_plan";
  let rng = Rng.create ~seed in
  let arr = Array.of_list faults in
  List.init n (fun _ ->
      { at_ns = Rng.int rng duration_ns; fault = arr.(Rng.int rng (Array.length arr)) })
  |> List.sort (fun a b -> compare a.at_ns b.at_ns)

(* ---- injection ---- *)

let kill_driver sv =
  match Supervisor.proc sv with
  | Some p when Process.is_alive p ->
    Process.kill p;
    true
  | Some _ | None -> false

let on_live_chan sv f =
  match Supervisor.chan sv with
  | Some chan when not (Uchan.is_closed chan) ->
    f chan;
    true
  | Some _ | None -> false

(* Apply one fault to the supervisor's current driver generation.
   Injections only make sense against a Running driver; while the
   supervisor is mid-recovery there is nothing to sabotage. *)
let inject ~sv ?dma_violate fault =
  Supervisor.state sv = Supervisor.Running
  &&
  match fault with
  | Crash -> kill_driver sv
  | Hang -> on_live_chan sv Uchan.wedge
  | Corrupt_reply -> on_live_chan sv (fun c -> Uchan.inject_corrupt_replies c 1)
  | Drop_reply -> on_live_chan sv (fun c -> Uchan.inject_drop_replies c 1)
  | Dma_violation ->
    (match dma_violate with
     | Some f ->
       f ();
       true
     | None -> false)
  | Corrupt_batch ->
    (* Garble one frame inside the next multi-frame downcall batch the
       driver flushes.  The kernel must drop exactly that frame
       (um_malformed_frames ticks) and deliver its siblings —
       containment without a restart. *)
    on_live_chan sv (fun c -> Uchan.inject_corrupt_batch_frames c 1)

(* Crash and hang are the net classes' own arms.  The device-level
   classes arm a one-shot hook on the emulated NVMe that fires on the
   next matching command — the continuous workload guarantees one
   arrives.  None of them produce a direct detection signal; they
   escalate through the proxy's per-request timeout, so every class here
   ends in a supervised recovery. *)
let blk_inject ~eng ~sv ~nvme fault =
  let running = Supervisor.state sv = Supervisor.Running in
  let arm hook = running && (hook nvme; true) in
  match fault with
  | Bcrash -> inject ~sv Crash
  | Bhang -> inject ~sv Hang
  | Corrupt_completion -> arm (Nvme_dev.inject_corrupt_completion ~mask:0x15)
  | Drop_completion -> arm Nvme_dev.inject_drop_completion
  | Drop_flush -> arm Nvme_dev.inject_drop_flush
  | Crash_mid_barrier ->
    running
    &&
    (match Supervisor.current_blk sv with
     | None -> false
     | Some s ->
       (* Wait (bounded) for a flush barrier to be on the wire, then
          kill: the nastiest instant for durability bookkeeping.  If
          none shows up the kill still lands — it degrades to Bcrash. *)
       let proxy = Driver_host.proxy s in
       ignore
         (Fiber.poll eng ~every_ns:100_000 ~budget:200 (fun () -> Proxy_blk.inflight_flush proxy)
          : bool);
       kill_driver sv)

type injector_stats = {
  mutable inj_applied : int;
  mutable inj_skipped : int;
  inj_by_class : (string, int) Hashtbl.t;
}

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Walk a plan in order, sleeping to each injection instant (relative to
   the fiber's start).  Before each injection, wait for a live target so
   every planned fault lands on a live driver (injections against a
   recovering driver are no-ops).  "Running" alone is not enough:
   between a driver death and the supervisor's next tick the state still
   reads Running while the target is already gone. *)
let run_plan k ~sv ~inject ~name plan =
  let eng = k.Kernel.eng in
  let stats = { inj_applied = 0; inj_skipped = 0; inj_by_class = Hashtbl.create 8 } in
  let target_live () =
    match Supervisor.state sv with
    | Supervisor.Running ->
      (match Supervisor.proc sv with
       | Some p -> Process.is_alive p
       | None -> false)
    | Supervisor.Recovering -> false
    | _ -> true (* quarantined: no recovery coming; let inject skip *)
  in
  let t0 = Engine.now eng in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"fault-injector"
       (fun () ->
          List.iter
            (fun { at_ns; fault } ->
               let dt = t0 + at_ns - Engine.now eng in
               if dt > 0 then ignore (Fiber.sleep eng dt : Fiber.wake);
               ignore (Fiber.poll eng ~every_ns:1_000_000 ~budget:1_000 target_live : bool);
               if inject fault then begin
                 stats.inj_applied <- stats.inj_applied + 1;
                 bump stats.inj_by_class (name fault)
               end
               else stats.inj_skipped <- stats.inj_skipped + 1)
            plan)
     : Fiber.t);
  stats

let by_class st ~name faults =
  List.map
    (fun f -> (name f, Option.value ~default:0 (Hashtbl.find_opt st.inj_by_class (name f))))
    faults

(* ---- the worlds ---- *)

type world = {
  eng : Engine.t;
  k : Kernel.t;
  sp : Safe_pci.t;
  medium : Net_medium.t;
  nic : E1000_dev.t;
  bdf : Bus.bdf;
  wire : int ref;          (* frames observed on the medium *)
}

let make_world () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let wire = ref 0 in
  ignore (Net_medium.attach medium ~rx:(fun _ -> incr wire) : Net_medium.port);
  let nic = E1000_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x01") ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  { eng; k; sp; medium; nic; bdf; wire }

type blk_world = {
  bw_eng : Engine.t;
  bw_k : Kernel.t;
  bw_sp : Safe_pci.t;
  bw_nvme : Nvme_dev.t;
  bw_bdf : Bus.bdf;
}

let make_blk_world ?capacity () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let nvme = Nvme_dev.create eng ?capacity () in
  let bdf = Kernel.attach_pci k (Nvme_dev.device nvme) in
  let sp = Safe_pci.init k in
  { bw_eng = eng; bw_k = k; bw_sp = sp; bw_nvme = nvme; bw_bdf = bdf }

let honest_factory ~attempt:_ = E1000.driver
let honest_blk_factory ~attempt:_ = Nvme.driver

let dma_violate w () =
  (* Device-level DMA to an address the driver never mapped: the IOMMU
     must fault and attribute it to this device's BDF. *)
  ignore (Device.dma_read (E1000_dev.device w.nic) ~addr:0x6000 ~len:64 : (bytes, Bus.fault) result)

let secret = "SOAK-SECRET-0xFEEDFACE"

(* Fast supervision policy so a multi-hundred-fault soak converges in
   bounded simulated time. *)
let soak_policy ~max_restarts =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000;
    max_restarts;
    backlog_limit = 128;
    (* The soak and the fuzzer measure the *cold* recovery path — its
       backoff, its backlog window, its per-class outage baselines
       (BENCH_5/7).  Warm standby is exercised by its own harnesses
       ([warm_policy], [upgrade_soak], sud-bench/8). *)
    standby = false }

(* The same aggressive watchdog with the warm standby on: lethal faults
   swap to the pre-forked generation instead of cold-starting. *)
let warm_policy ~max_restarts = { (soak_policy ~max_restarts) with Supervisor.standby = true }

(* ---- containment invariants ----

   Checked at every driver death.  The snapshot is taken at
   Fault_detected (the dying generation is still current); the checks
   run at Driver_killed (process dead, grant revoked, device reset).
   Class-independent: the same contract holds whether the supervised
   device is a NIC or an NVMe. *)

type invariant_ctx = {
  iv_secret_addr : int;
  mutable iv_snapshot : (Safe_pci.grant * int list) option;  (* grant, mapped iovas *)
  mutable iv_violations : string list;
  mutable iv_deaths : int;
}

let violate ctx fmt =
  Printf.ksprintf (fun s -> ctx.iv_violations <- s :: ctx.iv_violations) fmt

let invariant_violations ctx = List.rev ctx.iv_violations
let invariant_deaths ctx = ctx.iv_deaths

let install_invariants ~k ~bdf sv ~secret_addr =
  let ctx =
    { iv_secret_addr = secret_addr;
      iv_snapshot = None;
      iv_violations = [];
      iv_deaths = 0 }
  in
  Supervisor.on_event sv (function
      | Supervisor.Fault_detected _ ->
        (match Supervisor.grant sv with
         | Some g ->
           let iovas =
             List.concat_map
               (fun (iova, _phys, len, _w) ->
                  List.init (len / Bus.page_size) (fun i -> iova + (i * Bus.page_size)))
               (Safe_pci.iommu_mappings g)
           in
           ctx.iv_snapshot <- Some (g, iovas)
         | None -> ctx.iv_snapshot <- None)
      | Supervisor.Driver_killed ->
        ctx.iv_deaths <- ctx.iv_deaths + 1;
        let iommu = k.Kernel.iommu in
        (* Kernel memory is untouched by anything the dying driver did. *)
        let now =
          Phys_mem.read k.Kernel.mem ~addr:ctx.iv_secret_addr ~len:(String.length secret)
        in
        if Bytes.to_string now <> secret then
          violate ctx "death %d: kernel secret page corrupted" ctx.iv_deaths;
        (* The dead generation's grant is revoked and its IOMMU domain
           detached. *)
        (match ctx.iv_snapshot with
         | None -> violate ctx "death %d: no grant snapshot at detection time" ctx.iv_deaths
         | Some (g, iovas) ->
           if Safe_pci.grant_alive g then
             violate ctx "death %d: grant still alive after driver death" ctx.iv_deaths;
           if Iommu.domain_of iommu ~source:bdf <> None then
             violate ctx "death %d: IOMMU domain still attached" ctx.iv_deaths;
           (* No stale IOTLB entry: probing any previously-mapped iova must
              not answer from the cache.  (With the domain detached the
              probe reports passthrough [`Bypass]; a [`Hit] here would be
              the stale-translation containment hole.) *)
           List.iter
             (fun iova ->
                match Iommu.translate_info iommu ~source:bdf ~addr:iova ~dir:Bus.Dma_read with
                | _, `Hit ->
                  violate ctx "death %d: stale IOTLB entry for iova 0x%x" ctx.iv_deaths iova
                | _, (`Walk | `Bypass) -> ())
             iovas;
           ctx.iv_snapshot <- None)
      | Supervisor.Driver_restarted _ | Supervisor.Driver_quarantined _ -> ());
  ctx

(* Every campaign opens the same way: plant the secret, start the
   supervised driver, hook the invariants. *)
let supervise ~who k ~bdf start =
  let secret_addr = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
  Phys_mem.write k.Kernel.mem ~addr:secret_addr (Bytes.of_string secret);
  match start () with
  | Error e -> failwith (who ^ ": supervised start failed: " ^ e)
  | Ok sv -> (sv, install_invariants ~k ~bdf sv ~secret_addr)

(* An outage longer than this (simulated time) means recovery is not
   "bounded" in any useful sense: with a 10 ms hang timeout, a 1 ms tick
   and sub-ms backoff, healthy recoveries complete well under it. *)
let outage_bound_ns = 500_000_000

(* The worst recovery outage so far; any above the bound is a violation. *)
let track_outage ctx sv =
  let worst = ref 0 in
  Supervisor.on_event sv (function
      | Supervisor.Driver_restarted { outage_ns; _ } ->
        if outage_ns > !worst then worst := outage_ns;
        if outage_ns > outage_bound_ns then
          violate ctx "recovery outage %d ms exceeds bound" (outage_ns / 1_000_000)
      | _ -> ());
  worst

(* Fire [plan] at [sv], let it run out, then let the last recovery
   settle. *)
let storm k sv ~duration_ms ~inject ~name plan =
  let stats = run_plan k ~sv ~inject ~name plan in
  ignore (Fiber.sleep k.Kernel.eng ((duration_ms + 200) * 1_000_000) : Fiber.wake);
  ignore
    (Fiber.poll k.Kernel.eng ~every_ns:10_000_000 ~budget:200 (fun () ->
         Supervisor.state sv <> Supervisor.Recovering)
     : bool);
  stats

(* The verdict both fault soaks end on: the supervisor is back to
   Running and every detection was a checked death. *)
let check_settled ~who ctx sv =
  let st = Supervisor.stats sv in
  if Supervisor.state sv <> Supervisor.Running then
    violate ctx "%s ended with the supervisor not Running" who;
  if ctx.iv_deaths <> st.Supervisor.st_detections then
    violate ctx "detections %d but deaths %d" st.Supervisor.st_detections ctx.iv_deaths;
  st

(* ---- net load ---- *)

let netdev_up ~who w sv =
  let dev = Supervisor.netdev sv in
  match Netstack.ifconfig_up w.k.Kernel.net dev with
  | Ok () -> dev
  | Error e -> failwith (who ^ ": ifconfig up: " ^ e)

(* Continuous netperf-style UDP traffic through the supervised netdev. *)
type traffic = {
  mutable tr_offered : int;
  mutable tr_sent : int;
  mutable tr_dropped : int;
  mutable tr_stop : bool;
}

let start_traffic ?(burst = 1) w dev ~gap_ns =
  let tr = { tr_offered = 0; tr_sent = 0; tr_dropped = 0; tr_stop = false } in
  let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:7000 in
  ignore
    (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"traffic" (fun () ->
         let payload = Bytes.make 128 'x' in
         let send () =
           tr.tr_offered <- tr.tr_offered + 1;
           match
             Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast
               ~dst_port:7000 payload
           with
           | `Sent -> tr.tr_sent <- tr.tr_sent + 1
           | `Dropped -> tr.tr_dropped <- tr.tr_dropped + 1
         in
         let rec loop () =
           if not tr.tr_stop then begin
             for _ = 1 to burst do send () done;
             ignore (Fiber.sleep w.eng gap_ns : Fiber.wake);
             loop ()
           end
         in
         loop ())
     : Fiber.t);
  tr

(* ---- per-generation channel evidence ---- *)

type chan_tally = {
  ct_conf : (string, int) Hashtbl.t;
  mutable ct_malformed : int;
  mutable ct_malformed_frames : int;
  mutable ct_unsent : int;
}

let new_chan_tally () =
  { ct_conf = Hashtbl.create 8; ct_malformed = 0; ct_malformed_frames = 0; ct_unsent = 0 }

(* A closed channel is read too: a crash's exit hook closes it before
   the watchdog emits Fault_detected. *)
let tally_chan ct sv =
  match Supervisor.chan sv with
  | None -> ()
  | Some c ->
    List.iter
      (fun (cls, n) ->
         if n > 0 then
           Hashtbl.replace ct.ct_conf cls
             (n + Option.value ~default:0 (Hashtbl.find_opt ct.ct_conf cls)))
      (Conformance.class_counts (Uchan.conformance c));
    let um = Uchan.metrics c in
    ct.ct_malformed <- ct.ct_malformed + Sud_obs.Metrics.get um.Uchan.um_malformed;
    ct.ct_malformed_frames <-
      ct.ct_malformed_frames + Sud_obs.Metrics.get um.Uchan.um_malformed_frames;
    ct.ct_unsent <- ct.ct_unsent + Uchan.armed_corruptions c

(* ---- seed plumbing and schedule capture ---- *)

(* Every harness default seed below derives from this one root, so a
   single printed value reproduces the whole campaign; callers with
   their own root (bench, sud-check) pass explicit ?seed instead. *)
let default_root = 0x5D_D01_7E57L

let dseed tag = Rng.derive ~root:default_root tag

type sched_summary = {
  ss_policy : string;
  ss_points : int;
  ss_decisions : Sched.decision list;
  ss_steps : int;
  ss_trace_hash : int64;
  ss_metrics_hash : int64;
  ss_divergence : string option;
  ss_dump : string option;
}

(* Close out a (possibly recorded) run: fingerprint it, and if the run
   violated an invariant, dump a replayable schedule file under traces/
   so the failure is a repro, not an anecdote. *)
let finish_sched ~scenario ~seed ~sched ~eng rec_ ~violations =
  let spec = Option.value ~default:Sched.Fifo sched in
  let points, divergence =
    match rec_ with
    | Some r -> (r.Sched.rec_points, r.Sched.rec_divergence)
    | None -> (0, None)
  in
  let r =
    match rec_ with
    | Some r -> r
    | None -> { Sched.rec_rev = []; rec_points = 0; rec_divergence = None }
  in
  let steps = Engine.steps eng in
  let trace_hash = Engine.trace_hash eng in
  let metrics_hash = Sud_obs.Metrics.snapshot_hash () in
  let dump =
    if violations = [] then None
    else begin
      (try if not (Sys.file_exists "traces") then Sys.mkdir "traces" 0o755
       with Sys_error _ -> ());
      let path = Printf.sprintf "traces/%s_0x%Lx.sched.jsonl" scenario seed in
      match
        Sched.save ~path
          (Sched.file_of ~scenario ~seed ~spec ~trace_hash ~metrics_hash ~steps r)
      with
      | () -> Some path
      | exception Sys_error _ -> None
    end
  in
  { ss_policy = Sched.spec_label spec;
    ss_points = points;
    ss_decisions = Sched.decisions r;
    ss_steps = steps;
    ss_trace_hash = trace_hash;
    ss_metrics_hash = metrics_hash;
    ss_divergence = divergence;
    ss_dump = dump }

(* Placeholder filled in by [finish_sched] once the engine has drained. *)
let pending_sched =
  { ss_policy = "fifo";
    ss_points = 0;
    ss_decisions = [];
    ss_steps = 0;
    ss_trace_hash = 0L;
    ss_metrics_hash = 0L;
    ss_divergence = None;
    ss_dump = None }

(* ---- the net soak ---- *)

type soak_report = {
  sr_seed : int64;
  sr_planned : int;
  sr_applied : int;
  sr_skipped : int;
  sr_by_class : (string * int) list;
  sr_detections : int;
  sr_restarts : int;
  sr_deaths : int;
  sr_state : Supervisor.state;
  sr_offered : int;
  sr_sent : int;
  sr_dropped : int;
  sr_wire_frames : int;
  sr_backlog : Netdev.backlog_stats;
  sr_max_outage_ns : int;
  sr_malformed : int;
  sr_violations : string list;
  sr_sched : sched_summary;
}

let soak ?sched ?seed ?(n_faults = 200) ?(duration_ms = 4_000) ?plan () =
  let seed = match seed with Some s -> s | None -> dseed "soak" in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      random_plan ~seed ~duration_ns:(duration_ms * 1_000_000) ~n:n_faults ~faults:all_faults ()
  in
  let w = make_world () in
  let rec_ = Option.map (fun s -> Sched.install w.eng s) sched in
  let report =
    Kernel.run w.k (fun () ->
      let sv, ctx =
        supervise ~who:"soak" w.k ~bdf:w.bdf (fun () ->
            Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts:max_int) ~bdf:w.bdf
              honest_factory)
      in
      let max_outage = track_outage ctx sv in
      let ct = new_chan_tally () in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected _ -> tally_chan ct sv
          | _ -> ());
      let dev = netdev_up ~who:"soak" w sv in
      (* Bursts of 4 at the same average rate as before: back-to-back sends
         are what makes the driver's tx_free downcalls coalesce into
         multi-frame batch slots, so Corrupt_batch injections have an
         actual batch to garble. *)
      let tr = start_traffic ~burst:4 w dev ~gap_ns:800_000 in
      let stats =
        storm w.k sv ~duration_ms ~inject:(inject ~sv ~dma_violate:(dma_violate w))
          ~name:fault_name plan
      in
      tr.tr_stop <- true;
      ignore (Fiber.sleep w.eng 10_000_000 : Fiber.wake);
      (* Post-soak invariants. *)
      let st = check_settled ~who:"soak" ctx sv in
      let bl =
        let nm = Netdev.metrics dev in
        { Netdev.bl_offered = Sud_obs.Metrics.get nm.Netdev.nm_bl_offered;
          bl_queued = Sud_obs.Metrics.gauge_value nm.Netdev.nm_bl_queued;
          bl_dropped = Sud_obs.Metrics.get nm.Netdev.nm_bl_dropped;
          bl_replayed = Sud_obs.Metrics.get nm.Netdev.nm_bl_replayed }
      in
      if bl.Netdev.bl_offered <> bl.Netdev.bl_queued + bl.Netdev.bl_dropped + bl.Netdev.bl_replayed
      then
        violate ctx "backlog accounting broken: offered %d <> queued %d + dropped %d + replayed %d"
          bl.Netdev.bl_offered bl.Netdev.bl_queued bl.Netdev.bl_dropped bl.Netdev.bl_replayed;
      tally_chan ct sv;
      let malformed_total = ct.ct_malformed + ct.ct_malformed_frames in
      let applied cls =
        Option.value ~default:0 (Hashtbl.find_opt stats.inj_by_class cls)
      in
      (* A corruption armed on a generation that died before sending it
         never reached the kernel: only the sent ones must be counted. *)
      let sent = applied "corrupt_batch" + applied "corrupt_reply" - ct.ct_unsent in
      if sent > 0 && malformed_total = 0 then
        violate ctx
          "corruptions applied (%d batch, %d reply; %d never sent) but no slot was ever counted malformed"
          (applied "corrupt_batch") (applied "corrupt_reply") ct.ct_unsent;
      { sr_seed = seed;
        sr_planned = List.length plan;
        sr_applied = stats.inj_applied;
        sr_skipped = stats.inj_skipped;
        sr_by_class = by_class stats ~name:fault_name all_faults;
        sr_detections = st.Supervisor.st_detections;
        sr_restarts = st.Supervisor.st_restarts;
        sr_deaths = ctx.iv_deaths;
        sr_state = Supervisor.state sv;
        sr_offered = tr.tr_offered;
        sr_sent = tr.tr_sent;
        sr_dropped = tr.tr_dropped;
        sr_wire_frames = !(w.wire);
        sr_backlog = bl;
        sr_max_outage_ns = !max_outage;
        sr_malformed = malformed_total;
        sr_violations = invariant_violations ctx;
        sr_sched = pending_sched })
  in
  { report with
    sr_sched =
      finish_sched ~scenario:"soak" ~seed ~sched ~eng:w.eng rec_
        ~violations:report.sr_violations }

(* ---- the crash-consistency oracle ----

   One synchronous writer fiber writes patterned full pages.  Because
   Blkdev.write blocks until the cache accepts (and the queue acks) the
   page, the oracle's [dr_acked] array is, at every instant the writer
   runs, exactly the set of acknowledged writes.  Media may only be
   compared against it at one kind of instant: immediately after an
   [fsync] returns Ok, when everything acknowledged is durable by
   contract and nothing newer has been issued (single writer).  Every
   supervised restart forces such a check, so "no acked write lost, no
   unacked write visible" is asserted at every recovery.  Each soak
   brings its own writer step; the oracle owns the rest. *)

type durability = {
  dr_ctx : invariant_ctx;
  dr_nvme : Nvme_dev.t;
  dr_bd : Blkdev.t;
  dr_acked : bytes option array;  (* per page: the last write seen acked *)
  mutable dr_writes : int;
  mutable dr_reads : int;
  mutable dr_fsyncs : int;
  mutable dr_verifies : int;
  mutable dr_io_errors : int;
  mutable dr_check_pending : bool;  (* set on Driver_restarted *)
  mutable dr_stop : bool;
  mutable dr_done : bool;
}

let io_timeout_ns = 5_000_000_000
let blk_soak_pages = 64

(* Supervise the NVMe driver under the oracle. *)
let durable ~who w ~policy =
  let sv, ctx =
    supervise ~who w.bw_k ~bdf:w.bw_bdf (fun () ->
        Supervisor.start_blk w.bw_k w.bw_sp ~policy ~bdf:w.bw_bdf honest_blk_factory)
  in
  let bd =
    match Supervisor.blkdev sv with
    | Some bd -> bd
    | None -> failwith (who ^ ": no blkdev after start")
  in
  let d =
    { dr_ctx = ctx; dr_nvme = w.bw_nvme; dr_bd = bd;
      dr_acked = Array.make blk_soak_pages None;
      dr_writes = 0; dr_reads = 0; dr_fsyncs = 0; dr_verifies = 0; dr_io_errors = 0;
      dr_check_pending = false; dr_stop = false; dr_done = false }
  in
  Supervisor.on_event sv (function
      | Supervisor.Driver_restarted _ -> d.dr_check_pending <- true
      | _ -> ());
  (sv, d)

let io_error d fmt =
  d.dr_io_errors <- d.dr_io_errors + 1;
  violate d.dr_ctx fmt

let verify_media d why =
  d.dr_verifies <- d.dr_verifies + 1;
  Array.iteri
    (fun page data ->
       match data with
       | None -> ()
       | Some data ->
         let lba0 = page * Blkdev.page_sectors in
         for s = 0 to Blkdev.page_sectors - 1 do
           let expect = Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size in
           match Nvme_dev.media_sector d.dr_nvme ~lba:(lba0 + s) with
           | None ->
             violate d.dr_ctx "%s: acked write to sector %d lost (never on media)" why (lba0 + s)
           | Some got ->
             if not (Bytes.equal got expect) then
               violate d.dr_ctx "%s: media mismatch at sector %d" why (lba0 + s)
         done)
    d.dr_acked

let fsync_and_verify d why =
  match Blkdev.fsync d.dr_bd ~timeout_ns:io_timeout_ns () with
  | Ok () ->
    d.dr_fsyncs <- d.dr_fsyncs + 1;
    verify_media d why
  | Error e -> io_error d "%s: fsync failed: %s" why e

(* Write a patterned page [rng] picks and record the ack. *)
let acked_write d rng gen =
  let page = Rng.int rng blk_soak_pages in
  let data =
    Bytes.init Blkdev.page_size (fun i -> Char.chr ((page * 131 + gen * 31 + i) land 0xff))
  in
  let lba = page * Blkdev.page_sectors in
  match Blkdev.write d.dr_bd ~timeout_ns:io_timeout_ns ~lba data () with
  | Ok () ->
    d.dr_writes <- d.dr_writes + 1;
    d.dr_acked.(page) <- Some data
  | Error e -> io_error d "write to page %d failed: %s" page e

(* The writer fiber: run any pending post-recovery check, then [step]
   with the next generation number, every 50 us until stopped. *)
let start_writer k d step =
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load" (fun () ->
         let gen = ref 0 in
         while not d.dr_stop do
           if d.dr_check_pending then begin
             d.dr_check_pending <- false;
             fsync_and_verify d "post-recovery check"
           end;
           incr gen;
           step !gen;
           ignore (Fiber.sleep k.Kernel.eng 50_000 : Fiber.wake)
         done;
         d.dr_done <- true)
     : Fiber.t)

(* Stop and join the writer, then the end-of-run barrier: everything
   acked must be durable. *)
let stop_writer eng d =
  d.dr_stop <- true;
  ignore (Fiber.poll eng ~every_ns:10_000_000 ~budget:1_000 (fun () -> d.dr_done) : bool);
  fsync_and_verify d "final check"

(* ---- the storage soak ---- *)

type blk_soak_report = {
  bsr_seed : int64;
  bsr_planned : int;
  bsr_applied : int;
  bsr_skipped : int;
  bsr_by_class : (string * int) list;
  bsr_detections : int;
  bsr_restarts : int;
  bsr_deaths : int;
  bsr_state : Supervisor.state;
  bsr_writes : int;
  bsr_reads : int;
  bsr_fsyncs : int;
  bsr_verifies : int;
  bsr_io_errors : int;
  bsr_max_outage_ns : int;
  bsr_retained_end : int;
  bsr_inflight_end : int;
  bsr_by_reason : (string * int) list;
  bsr_violations : string list;
  bsr_sched : sched_summary;
}

let blk_soak ?sched ?seed ?(n_faults = 200) ?(duration_ms = 6_000) ?plan () =
  let seed = match seed with Some s -> s | None -> dseed "blk-soak" in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      random_plan ~seed ~duration_ns:(duration_ms * 1_000_000) ~n:n_faults
        ~faults:all_blk_faults ()
  in
  let w = make_blk_world () in
  let rec_ = Option.map (fun s -> Sched.install w.bw_eng s) sched in
  let report =
    Kernel.run ~max_ms:120_000 w.bw_k (fun () ->
      let sv, d = durable ~who:"blk_soak" w ~policy:(soak_policy ~max_restarts:max_int) in
      let ctx = d.dr_ctx in
      let max_outage = track_outage ctx sv in
      let reasons = Hashtbl.create 8 in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected reason -> bump reasons reason
          | _ -> ());
      let rng = Rng.create ~seed:(Int64.add seed 1L) in
      start_writer w.bw_k d (fun gen ->
          acked_write d rng gen;
          (* Read-back: the cache must agree with the last ack. *)
          (if gen mod 4 = 0 then
             let rp = Rng.int rng blk_soak_pages in
             match d.dr_acked.(rp) with
             | None -> ()
             | Some expect ->
               (match
                  Blkdev.read d.dr_bd ~timeout_ns:io_timeout_ns
                    ~lba:(rp * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors ()
                with
                | Ok got ->
                  d.dr_reads <- d.dr_reads + 1;
                  if not (Bytes.equal got expect) then
                    violate ctx "read of page %d disagrees with last acked write" rp
                | Error e -> io_error d "read of page %d failed: %s" rp e));
          if gen mod 6 = 0 then fsync_and_verify d "periodic check");
      let stats =
        storm w.bw_k sv ~duration_ms ~inject:(blk_inject ~eng:w.bw_eng ~sv ~nvme:w.bw_nvme)
          ~name:blk_fault_name plan
      in
      stop_writer w.bw_eng d;
      (* The proxy's retention must be fully drained by the final fsync. *)
      let retained, inflight =
        match Supervisor.current_blk sv with
        | Some s ->
          let p = Driver_host.proxy s in
          (Proxy_blk.retained p, Proxy_blk.inflight p)
        | None -> (-1, -1)
      in
      if retained <> 0 then
        violate ctx "final fsync left %d writes retained (flush did not cover)" retained;
      if inflight <> 0 then begin
        violate ctx "%d requests still in flight after final fsync" inflight;
        match Supervisor.current_blk sv with
        | Some s -> violate ctx "stuck:\n%s" (Proxy_blk.inflight_summary (Driver_host.proxy s))
        | None -> ()
      end;
      let st = check_settled ~who:"blk soak" ctx sv in
      { bsr_seed = seed;
        bsr_planned = List.length plan;
        bsr_applied = stats.inj_applied;
        bsr_skipped = stats.inj_skipped;
        bsr_by_class = by_class stats ~name:blk_fault_name all_blk_faults;
        bsr_detections = st.Supervisor.st_detections;
        bsr_restarts = st.Supervisor.st_restarts;
        bsr_deaths = ctx.iv_deaths;
        bsr_state = Supervisor.state sv;
        bsr_writes = d.dr_writes;
        bsr_reads = d.dr_reads;
        bsr_fsyncs = d.dr_fsyncs;
        bsr_verifies = d.dr_verifies;
        bsr_io_errors = d.dr_io_errors;
        bsr_max_outage_ns = !max_outage;
        bsr_retained_end = retained;
        bsr_inflight_end = inflight;
        bsr_by_reason =
          Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
          |> List.sort (fun (ra, a) (rb, b) ->
                 (* count desc, then name: hash order must not pick the
                    tie-break winner or reports differ across replays. *)
                 match compare b a with 0 -> compare ra rb | c -> c);
        bsr_violations = invariant_violations ctx;
        bsr_sched = pending_sched })
  in
  { report with
    bsr_sched =
      finish_sched ~scenario:"blk-soak" ~seed ~sched ~eng:w.bw_eng rec_
        ~violations:report.bsr_violations }

(* ---- warm standby: upgrades, poison, and the interleaving soak ---- *)

let inject_standby_poison ~sv =
  match Supervisor.standby_proc sv with
  | Some p when Process.is_alive p ->
    Process.kill p;
    true
  | Some _ | None -> false

(* Bounded wait for the warm slot; the watchdog's [ensure] keeps
   re-warming, so Ready is eventually reached unless quarantined. *)
let wait_standby_ready ~eng sv ~budget_ms =
  Fiber.poll eng ~every_ns:1_000_000 ~budget:budget_ms (fun () ->
      Supervisor.standby_status sv = Standby.Ready)

let wait_running ~eng sv ~budget_ms =
  Fiber.poll eng ~every_ns:1_000_000 ~budget:budget_ms (fun () ->
      Supervisor.state sv = Supervisor.Running)

type upgrade_soak_report = {
  usr_seed : int64;
  usr_interleavings : int;
  usr_upgrades : int;
  usr_warm_swaps : int;
  usr_cold_restarts : int;
  usr_poisoned : int;
  usr_writes : int;
  usr_fsyncs : int;
  usr_verifies : int;
  usr_io_errors : int;
  usr_state : Supervisor.state;
  usr_violations : string list;
  usr_sched : sched_summary;
}

let upgrade_soak ?sched ?seed ?(interleavings = 20) () =
  let seed = match seed with Some s -> s | None -> dseed "upgrade-soak" in
  let w = make_blk_world () in
  let rec_ = Option.map (fun s -> Sched.install w.bw_eng s) sched in
  let report =
    Kernel.run ~max_ms:180_000 w.bw_k (fun () ->
      let eng = w.bw_eng in
      let sv, d = durable ~who:"upgrade_soak" w ~policy:(warm_policy ~max_restarts:max_int) in
      let ctx = d.dr_ctx in
      (* One rng drives both the writer and the interleavings. *)
      let rng = Rng.create ~seed in
      start_writer w.bw_k d (fun gen ->
          acked_write d rng gen;
          if gen mod 6 = 0 then
            match Blkdev.fsync d.dr_bd ~timeout_ns:io_timeout_ns () with
            | Ok () -> d.dr_fsyncs <- d.dr_fsyncs + 1
            | Error e -> io_error d "periodic fsync failed: %s" e);
      let warm () = ignore (wait_standby_ready ~eng sv ~budget_ms:2_000 : bool) in
      let crash () = ignore (blk_inject ~eng ~sv ~nvme:w.bw_nvme Bcrash : bool) in
      (* Let the first writes land and the first standby warm up. *)
      ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
      for i = 1 to interleavings do
        (match Rng.int rng 6 with
         | 0 ->
           (* Plain live upgrade: zero-loss swap to the standby. *)
           warm ();
           (match Supervisor.upgrade sv with
            | Ok () -> ()
            | Error e -> violate ctx "interleaving %d: upgrade failed: %s" i e)
         | 1 ->
           (* Administrative failover: the fire drill through recover. *)
           (match Supervisor.failover sv with
            | Ok () -> ()
            | Error e -> violate ctx "interleaving %d: failover failed: %s" i e)
         | 2 ->
           (* A lethal fault while the standby is warm: the swap path. *)
           warm ();
           crash ()
         | 3 ->
           (* A device-level fault that escalates through the request
              timeout — recovery with retained-write replay. *)
           let f =
             match Rng.int rng 3 with
             | 0 -> Corrupt_completion
             | 1 -> Drop_completion
             | _ -> Drop_flush
           in
           ignore (blk_inject ~eng ~sv ~nvme:w.bw_nvme f : bool)
         | 4 ->
           (* standby_poisoned: kill the parked generation, then upgrade.
              The poisoned slot must be discarded and rebuilt, never
              swapped in. *)
           warm ();
           let _, poisoned0 = Supervisor.standby_stats sv in
           if inject_standby_poison ~sv then begin
             (match Supervisor.upgrade sv with
              | Ok () -> ()
              | Error e ->
                violate ctx "interleaving %d: upgrade after poison failed: %s" i e);
             let _, poisoned1 = Supervisor.standby_stats sv in
             if poisoned1 <= poisoned0 then
               violate ctx
                 "interleaving %d: poisoned standby was never detected as poisoned" i
           end
         | _ ->
           (* upgrade_during_fault: a crash racing the upgrade drain.
              Either order is a legal interleaving — the upgrade may
              fail ("driver not running" or double failover), but acked
              writes must survive regardless. *)
           warm ();
           let delay_ns = 200_000 + Rng.int rng 3_000_000 in
           ignore
             (Process.spawn_fiber (Process.kernel_process w.bw_k.Kernel.procs)
                ~name:"upgrade-crasher" (fun () ->
                    ignore (Fiber.sleep eng delay_ns : Fiber.wake);
                    crash ())
              : Fiber.t);
           ignore (Supervisor.upgrade sv : (unit, string) result));
        if not (wait_running ~eng sv ~budget_ms:5_000) then
          violate ctx "interleaving %d: supervisor not Running afterwards" i
        else begin
          (* The media sweep must not race the writer: hand the check to
             the writer fiber (the only mutator of [dr_acked]), exactly
             like the post-recovery checks. *)
          d.dr_check_pending <- true;
          ignore
            (Fiber.poll eng ~every_ns:1_000_000 ~budget:2_000 (fun () ->
                 not d.dr_check_pending)
             : bool)
        end
      done;
      stop_writer eng d;
      let st = Supervisor.stats sv in
      if Supervisor.state sv <> Supervisor.Running then
        violate ctx "upgrade soak ended with the supervisor not Running";
      let _, poisoned = Supervisor.standby_stats sv in
      { usr_seed = seed;
        usr_interleavings = interleavings;
        usr_upgrades = st.Supervisor.st_upgrades;
        usr_warm_swaps = st.Supervisor.st_warm_swaps;
        usr_cold_restarts = st.Supervisor.st_restarts - st.Supervisor.st_warm_swaps;
        usr_poisoned = poisoned;
        usr_writes = d.dr_writes;
        usr_fsyncs = d.dr_fsyncs;
        usr_verifies = d.dr_verifies;
        usr_io_errors = d.dr_io_errors;
        usr_state = Supervisor.state sv;
        usr_violations = invariant_violations ctx;
        usr_sched = pending_sched })
  in
  { report with
    usr_sched =
      finish_sched ~scenario:"upgrade-soak" ~seed ~sched ~eng:w.bw_eng rec_
        ~violations:report.usr_violations }

(* ---- single-fault recovery latency, for the bench harness ---- *)

type recovery_sample = {
  rs_fault : string;
  rs_detect_ns : int;
  rs_outage_ns : int;
  rs_trace_hash : int64;
  rs_steps : int;
}

(* The one measure body: start the supervised driver, put it under
   [load] (which returns its stop), let it run 5 ms, inject once — on
   the warm path only once the standby is Ready — and wait up to 2 s for
   the restore.  [run] is the world's [Kernel.run]. *)
let measure ~who ~eng ~run ~start ~load ~inject ~warm fault =
  let detect_ns, outage_ns =
    run (fun () ->
        let sv = match start () with Ok sv -> sv | Error e -> failwith (who ^ ": " ^ e) in
        let stop_load = load sv in
        let restored = ref None in
        Supervisor.on_event sv (function
            | Supervisor.Driver_restarted { outage_ns; _ } when !restored = None ->
              restored := Some outage_ns
            | _ -> ());
        ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
        if warm && not (wait_standby_ready ~eng sv ~budget_ms:2_000) then
          failwith (who ^ ": standby never became Ready");
        if not (inject sv) then failwith (who ^ ": injection not applied: " ^ fault);
        ignore
          (Fiber.poll eng ~every_ns:1_000_000 ~budget:2_000 (fun () -> !restored <> None) : bool);
        stop_load ();
        match !restored with
        | None -> failwith (who ^ ": no recovery observed for " ^ fault)
        | Some outage ->
          if warm && Supervisor.warm_swaps sv = 0 then
            failwith (who ^ ": recovery for " ^ fault ^ " took the cold path");
          ((Supervisor.stats sv).Supervisor.st_last_detect_latency_ns, outage))
  in
  { rs_fault = fault;
    rs_detect_ns = detect_ns;
    rs_outage_ns = outage_ns;
    rs_trace_hash = Engine.trace_hash eng;
    rs_steps = Engine.steps eng }

let measure_recovery fault =
  let w = make_world () in
  measure ~who:"measure_recovery" ~eng:w.eng ~run:(Kernel.run w.k)
    ~start:(fun () ->
        Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts:10) ~bdf:w.bdf
          honest_factory)
    ~load:(fun sv ->
        let tr = start_traffic w (netdev_up ~who:"measure_recovery" w sv) ~gap_ns:200_000 in
        fun () -> tr.tr_stop <- true)
    ~inject:(fun sv -> inject ~sv ~dma_violate:(dma_violate w) fault)
    ~warm:false (fault_name fault)

(* Storage load for the measures: a page write every 50 us over 8 pages,
   an fsync every fourth. *)
let blk_probe_load w sv =
  let bd = Option.get (Supervisor.blkdev sv) in
  let stop = ref false in
  ignore
    (Process.spawn_fiber (Process.kernel_process w.bw_k.Kernel.procs) ~name:"blk-load"
       (fun () ->
          let gen = ref 0 in
          while not !stop do
            incr gen;
            let page = !gen mod 8 in
            let data = Bytes.make Blkdev.page_size (Char.chr (!gen land 0xff)) in
            ignore
              (Blkdev.write bd ~timeout_ns:io_timeout_ns ~lba:(page * Blkdev.page_sectors) data ()
               : (unit, string) result);
            if !gen mod 4 = 0 then
              ignore (Blkdev.fsync bd ~timeout_ns:io_timeout_ns () : (unit, string) result);
            ignore (Fiber.sleep w.bw_eng 50_000 : Fiber.wake)
          done)
     : Fiber.t);
  fun () -> stop := true

let measure_blk ~who ~policy ~warm fault =
  let w = make_blk_world () in
  measure ~who ~eng:w.bw_eng ~run:(Kernel.run ~max_ms:10_000 w.bw_k)
    ~start:(fun () ->
        Supervisor.start_blk w.bw_k w.bw_sp ~policy ~bdf:w.bw_bdf honest_blk_factory)
    ~load:(blk_probe_load w)
    ~inject:(fun sv -> blk_inject ~eng:w.bw_eng ~sv ~nvme:w.bw_nvme fault)
    ~warm ("blk_" ^ blk_fault_name fault)

let measure_blk_recovery =
  measure_blk ~who:"measure_blk_recovery" ~policy:(soak_policy ~max_restarts:10) ~warm:false

let measure_warm_blk_recovery =
  measure_blk ~who:"measure_warm_blk_recovery" ~policy:(warm_policy ~max_restarts:10)
    ~warm:true

(* ---- forced crash-loop: the restart budget must quarantine ---- *)

type quarantine_report = {
  qr_restarts : int;
  qr_quarantined : bool;
  qr_netdev_removed : bool;
  qr_sysfs_state : string;
  qr_trace_hash : int64;
  qr_steps : int;
}

let crash_loop ?(max_restarts = 3) () =
  let w = make_world () in
  let r =
    Kernel.run w.k (fun () ->
      let sv =
        match
          Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts) ~bdf:w.bdf
            honest_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("crash_loop: " ^ e)
      in
      let dev = netdev_up ~who:"crash_loop" w sv in
      let quarantined () = Supervisor.state sv = Supervisor.Quarantined in
      (* Kill every fresh generation as soon as it comes up. *)
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"crash-looper"
           (fun () ->
              while not (quarantined ()) do
                ignore (inject ~sv Crash : bool);
                ignore (Fiber.sleep w.eng 2_000_000 : Fiber.wake)
              done)
         : Fiber.t);
      ignore (Fiber.poll w.eng ~every_ns:10_000_000 ~budget:1_000 quarantined : bool);
      let sysfs_state =
        match Sysfs.find_bdf w.k.Kernel.sysfs w.bdf with
        | Some e -> Option.value ~default:"" (Sysfs.attr e "sud_state")
        | None -> ""
      in
      { qr_restarts = (Supervisor.stats sv).Supervisor.st_restarts;
        qr_quarantined = quarantined ();
        qr_netdev_removed = Netstack.find_netdev w.k.Kernel.net (Netdev.name dev) = None;
        qr_sysfs_state = sysfs_state;
        qr_trace_hash = 0L;
        qr_steps = 0 })
  in
  { r with qr_trace_hash = Engine.trace_hash w.eng; qr_steps = Engine.steps w.eng }
