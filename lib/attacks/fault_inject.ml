(* Seeded deterministic fault injection against a supervised driver, and
   the crash-loop soak harness that exercises the supervisor's
   detect → contain → recover loop hundreds of times under live traffic
   while checking the containment invariants at every driver death. *)

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

type injection = { at_ns : int; fault : fault }
type plan = injection list

let random_plan ~seed ~duration_ns ~n ?(faults = all_faults) () =
  if n < 0 || duration_ns <= 0 then invalid_arg "Fault_inject.random_plan";
  let rng = Rng.create ~seed in
  let arr = Array.of_list faults in
  List.init n (fun _ ->
      { at_ns = Rng.int rng duration_ns; fault = arr.(Rng.int rng (Array.length arr)) })
  |> List.sort (fun a b -> compare a.at_ns b.at_ns)

type injector_stats = {
  mutable inj_applied : int;
  mutable inj_skipped : int;
  inj_by_class : (string, int) Hashtbl.t;
}

let new_injector_stats () =
  { inj_applied = 0; inj_skipped = 0; inj_by_class = Hashtbl.create 8 }

let by_class st =
  List.map
    (fun f -> (fault_name f, Option.value ~default:0 (Hashtbl.find_opt st.inj_by_class (fault_name f))))
    all_faults

(* Apply one fault to the supervisor's current driver generation.
   Injections only make sense against a Running driver; while the
   supervisor is mid-recovery there is nothing to sabotage. *)
let inject ~sv ?dma_violate fault =
  if Supervisor.state sv <> Supervisor.Running then false
  else
    match fault with
    | Crash ->
      (match Supervisor.proc sv with
       | Some p when Process.is_alive p ->
         Process.kill p;
         true
       | Some _ | None -> false)
    | Hang ->
      (match Supervisor.chan sv with
       | Some chan when not (Uchan.is_closed chan) ->
         Uchan.wedge chan;
         true
       | Some _ | None -> false)
    | Corrupt_reply ->
      (match Supervisor.chan sv with
       | Some chan when not (Uchan.is_closed chan) ->
         Uchan.inject_corrupt_replies chan 1;
         true
       | Some _ | None -> false)
    | Drop_reply ->
      (match Supervisor.chan sv with
       | Some chan when not (Uchan.is_closed chan) ->
         Uchan.inject_drop_replies chan 1;
         true
       | Some _ | None -> false)
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
      (match Supervisor.chan sv with
       | Some chan when not (Uchan.is_closed chan) ->
         Uchan.inject_corrupt_batch_frames chan 1;
         true
       | Some _ | None -> false)

(* Walk a plan in order, sleeping to each injection instant (relative to
   the fiber's start).  After injecting, wait for the supervisor to come
   back to Running before the next one so every planned fault lands on a
   live driver (injections against a recovering driver are no-ops). *)
let run_plan k ~sv ?dma_violate ?(stats = new_injector_stats ()) plan =
  let eng = k.Kernel.eng in
  let t0 = Engine.now eng in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"fault-injector"
       (fun () ->
          List.iter
            (fun { at_ns; fault } ->
               let dt = t0 + at_ns - Engine.now eng in
               if dt > 0 then ignore (Fiber.sleep eng dt : Fiber.wake);
               (* "Running" alone is not enough: between a driver death
                  and the supervisor's next tick the state still reads
                  Running while the target is already gone, and a fault
                  landing in that window would find nothing to sabotage.
                  Wait for a generation that is actually alive. *)
               let target_live () =
                 match Supervisor.state sv with
                 | Supervisor.Running ->
                   (match Supervisor.proc sv with
                    | Some p -> Process.is_alive p
                    | None -> false)
                 | Supervisor.Recovering -> false
                 | _ -> true (* quarantined: no recovery coming; let inject skip *)
               in
               let rec wait_running budget =
                 if budget > 0 && not (target_live ()) then begin
                   ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
                   wait_running (budget - 1)
                 end
               in
               wait_running 1_000;
               if inject ~sv ?dma_violate fault then begin
                 stats.inj_applied <- stats.inj_applied + 1;
                 let n = fault_name fault in
                 Hashtbl.replace stats.inj_by_class n
                   (1 + Option.value ~default:0 (Hashtbl.find_opt stats.inj_by_class n))
               end
               else stats.inj_skipped <- stats.inj_skipped + 1)
            plan)
     : Fiber.t);
  stats

(* ---- the soak world ---- *)

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
  ignore (Net_medium.attach medium ~name:"snoop" ~rx:(fun _ -> incr wire) : Net_medium.port);
  let nic = E1000_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x01") ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  { eng; k; sp; medium; nic; bdf; wire }

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
    restart_window_ns = 2_000_000_000;
    backlog_limit = 128;
    (* The soak and the fuzzer measure the *cold* recovery path — its
       backoff, its backlog window, its per-class outage baselines
       (BENCH_5/7).  Warm standby is exercised by its own harnesses
       ([warm_policy], [upgrade_soak], sud-bench/8). *)
    standby = false }

(* The same aggressive watchdog with the warm standby on: lethal faults
   swap to the pre-forked generation instead of cold-starting. *)
let warm_policy ~max_restarts = { (soak_policy ~max_restarts) with Supervisor.standby = true }

(* Containment invariants, checked at every driver death.  The snapshot
   is taken at Fault_detected (the dying generation is still current);
   the checks run at Driver_killed (process dead, grant revoked, device
   reset). *)
type invariant_ctx = {
  iv_k : Kernel.t;
  iv_bdf : Bus.bdf;
  iv_secret_addr : int;
  mutable iv_snapshot : (Safe_pci.grant * int list) option;  (* grant, mapped iovas *)
  mutable iv_violations : string list;
  mutable iv_deaths : int;
}

let violate ctx fmt =
  Printf.ksprintf (fun s -> ctx.iv_violations <- s :: ctx.iv_violations) fmt

let invariant_violations ctx = List.rev ctx.iv_violations
let invariant_deaths ctx = ctx.iv_deaths

(* Class-independent: the same containment contract holds whether the
   supervised device is a NIC or an NVMe. *)
let install_invariants_for ~k ~bdf sv ~secret_addr =
  let ctx =
    { iv_k = k;
      iv_bdf = bdf;
      iv_secret_addr = secret_addr;
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

let install_invariants w sv ~secret_addr =
  install_invariants_for ~k:w.k ~bdf:w.bdf sv ~secret_addr

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

let dma_violate w () =
  (* Device-level DMA to an address the driver never mapped: the IOMMU
     must fault and attribute it to this device's BDF. *)
  ignore (Device.dma_read (E1000_dev.device w.nic) ~addr:0x6000 ~len:64 : (bytes, Bus.fault) result)

let honest_factory ~attempt:_ = E1000.driver

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

(* ---- the soak itself ---- *)

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

(* An outage longer than this (simulated time) means recovery is not
   "bounded" in any useful sense: with a 10 ms hang timeout, a 1 ms tick
   and sub-ms backoff, healthy recoveries complete well under it. *)
let outage_bound_ns = 500_000_000

let soak ?sched ?seed ?(n_faults = 200) ?(duration_ms = 4_000) ?plan () =
  let seed = match seed with Some s -> s | None -> dseed "soak" in
  let w = make_world () in
  let rec_ = Option.map (fun s -> Sched.install w.eng s) sched in
  let report =
    Kernel.run w.k (fun () ->
      let secret_addr = Phys_mem.alloc_pages w.k.Kernel.mem ~pages:1 in
      Phys_mem.write w.k.Kernel.mem ~addr:secret_addr (Bytes.of_string secret);
      let sv =
        match
          Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts:max_int) ~bdf:w.bdf
            honest_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("soak: supervised start failed: " ^ e)
      in
      let ctx = install_invariants w sv ~secret_addr in
      let max_outage = ref 0 in
      let ct = new_chan_tally () in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } ->
            if outage_ns > !max_outage then max_outage := outage_ns;
            if outage_ns > outage_bound_ns then
              violate ctx "recovery outage %d ms exceeds bound" (outage_ns / 1_000_000)
          | Supervisor.Fault_detected _ -> tally_chan ct sv
          | _ -> ());
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> failwith ("soak: ifconfig up: " ^ e));
      (* Bursts of 4 at the same average rate as before: back-to-back sends
         are what makes the driver's tx_free downcalls coalesce into
         multi-frame batch slots, so Corrupt_batch injections have an
         actual batch to garble. *)
      let tr = start_traffic ~burst:4 w dev ~gap_ns:800_000 in
      let plan =
        match plan with
        | Some p -> p
        | None -> random_plan ~seed ~duration_ns:(duration_ms * 1_000_000) ~n:n_faults ()
      in
      let stats = run_plan w.k ~sv ~dma_violate:(dma_violate w) plan in
      (* Let the plan run out, then let the last recovery settle. *)
      ignore (Fiber.sleep w.eng ((duration_ms + 200) * 1_000_000) : Fiber.wake);
      let rec drain budget =
        if budget > 0 && Supervisor.state sv = Supervisor.Recovering then begin
          ignore (Fiber.sleep w.eng 10_000_000 : Fiber.wake);
          drain (budget - 1)
        end
      in
      drain 200;
      tr.tr_stop <- true;
      ignore (Fiber.sleep w.eng 10_000_000 : Fiber.wake);
      (* Post-soak invariants. *)
      let st = Supervisor.stats sv in
      if Supervisor.state sv <> Supervisor.Running then
        violate ctx "soak ended with supervisor %s, expected Running"
          (match Supervisor.state sv with
           | Supervisor.Running -> "running"
           | Supervisor.Recovering -> "recovering"
           | Supervisor.Quarantined -> "quarantined"
           | Supervisor.Stopped -> "stopped");
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
      if ctx.iv_deaths <> st.Supervisor.st_detections then
        violate ctx "detections %d but deaths %d" st.Supervisor.st_detections ctx.iv_deaths;
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
        sr_by_class = by_class stats;
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
        sr_violations = List.rev ctx.iv_violations;
        sr_sched = pending_sched })
  in
  { report with
    sr_sched =
      finish_sched ~scenario:"soak" ~seed ~sched ~eng:w.eng rec_
        ~violations:report.sr_violations }

(* ---- single-fault recovery latency, for the bench harness ---- *)

type recovery_sample = {
  rs_fault : string;
  rs_detect_ns : int;
  rs_outage_ns : int;
}

let measure_recovery ?seed:_ fault =
  let w = make_world () in
  Kernel.run w.k (fun () ->
      let sv =
        match
          Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts:10) ~bdf:w.bdf
            honest_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("measure_recovery: " ^ e)
      in
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> failwith ("measure_recovery: ifconfig up: " ^ e));
      let tr = start_traffic w dev ~gap_ns:200_000 in
      let restored = ref None in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } when !restored = None ->
            restored := Some outage_ns
          | _ -> ());
      ignore (Fiber.sleep w.eng 5_000_000 : Fiber.wake);
      if not (inject ~sv ~dma_violate:(dma_violate w) fault) then
        failwith ("measure_recovery: injection not applied: " ^ fault_name fault);
      let rec wait budget =
        match !restored with
        | Some _ -> ()
        | None when budget = 0 -> ()
        | None ->
          ignore (Fiber.sleep w.eng 1_000_000 : Fiber.wake);
          wait (budget - 1)
      in
      wait 2_000;
      tr.tr_stop <- true;
      let st = Supervisor.stats sv in
      match !restored with
      | None -> failwith ("measure_recovery: no recovery observed for " ^ fault_name fault)
      | Some outage ->
        { rs_fault = fault_name fault;
          rs_detect_ns = st.Supervisor.st_last_detect_latency_ns;
          rs_outage_ns = outage })

(* ---- forced crash-loop: the restart budget must quarantine ---- *)

type quarantine_report = {
  qr_restarts : int;
  qr_quarantined : bool;
  qr_netdev_removed : bool;
  qr_sysfs_state : string;
}

let crash_loop ?(max_restarts = 3) () =
  let w = make_world () in
  Kernel.run w.k (fun () ->
      let sv =
        match
          Supervisor.start w.k w.sp ~policy:(soak_policy ~max_restarts) ~bdf:w.bdf
            honest_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("crash_loop: " ^ e)
      in
      let dev = Supervisor.netdev sv in
      (match Netstack.ifconfig_up w.k.Kernel.net dev with
       | Ok () -> ()
       | Error e -> failwith ("crash_loop: ifconfig up: " ^ e));
      (* Kill every fresh generation as soon as it comes up. *)
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"crash-looper"
           (fun () ->
              let rec loop () =
                if Supervisor.state sv <> Supervisor.Quarantined then begin
                  ignore (inject ~sv Crash : bool);
                  ignore (Fiber.sleep w.eng 2_000_000 : Fiber.wake);
                  loop ()
                end
              in
              loop ())
         : Fiber.t);
      let rec wait budget =
        if budget > 0 && Supervisor.state sv <> Supervisor.Quarantined then begin
          ignore (Fiber.sleep w.eng 10_000_000 : Fiber.wake);
          wait (budget - 1)
        end
      in
      wait 1_000;
      let st = Supervisor.stats sv in
      let sysfs_state =
        match Sysfs.find_bdf w.k.Kernel.sysfs w.bdf with
        | Some e -> Option.value ~default:"" (Sysfs.attr e "sud_state")
        | None -> ""
      in
      { qr_restarts = st.Supervisor.st_restarts;
        qr_quarantined = Supervisor.state sv = Supervisor.Quarantined;
        qr_netdev_removed = Netstack.find_netdev w.k.Kernel.net (Netdev.name dev) = None;
        qr_sysfs_state = sysfs_state })

(* ---- sud-blk: storage fault classes and the crash-consistency soak ---- *)

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

type blk_injection = { bat_ns : int; bfault : blk_fault }
type blk_plan = blk_injection list

let random_blk_plan ~seed ~duration_ns ~n ?(faults = all_blk_faults) () =
  if n < 0 || duration_ns <= 0 then invalid_arg "Fault_inject.random_blk_plan";
  let rng = Rng.create ~seed in
  let arr = Array.of_list faults in
  List.init n (fun _ ->
      { bat_ns = Rng.int rng duration_ns; bfault = arr.(Rng.int rng (Array.length arr)) })
  |> List.sort (fun a b -> compare a.bat_ns b.bat_ns)

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

let honest_blk_factory ~attempt:_ = Nvme.driver

(* Apply one storage fault.  The device-level classes (corrupt/drop
   completion, drop flush) arm a one-shot hook on the emulated NVMe that
   fires on the next matching command — the continuous workload
   guarantees one arrives.  None of them produce a direct detection
   signal; they escalate through the proxy's per-request timeout, so
   every class here ends in a supervised recovery.  Must run in a fiber
   (Crash_mid_barrier sleeps, stalking a flush). *)
let blk_inject ~eng ~sv ~nvme fault =
  if Supervisor.state sv <> Supervisor.Running then false
  else
    match fault with
    | Bcrash ->
      (match Supervisor.proc sv with
       | Some p when Process.is_alive p ->
         Process.kill p;
         true
       | Some _ | None -> false)
    | Bhang ->
      (match Supervisor.chan sv with
       | Some chan when not (Uchan.is_closed chan) ->
         Uchan.wedge chan;
         true
       | Some _ | None -> false)
    | Corrupt_completion ->
      Nvme_dev.inject_corrupt_completion nvme ~mask:0x15;
      true
    | Drop_completion ->
      Nvme_dev.inject_drop_completion nvme;
      true
    | Drop_flush ->
      Nvme_dev.inject_drop_flush nvme;
      true
    | Crash_mid_barrier ->
      (match Supervisor.current_blk sv with
       | None -> false
       | Some s ->
         let proxy = Driver_host.proxy s in
         (* Wait (bounded) for a flush barrier to be on the wire, then
            kill: the nastiest instant for durability bookkeeping.  If
            none shows up the kill still lands — it degrades to Bcrash. *)
         let rec stalk budget =
           if budget > 0 && not (Proxy_blk.inflight_flush proxy) then begin
             ignore (Fiber.sleep eng 100_000 : Fiber.wake);
             stalk (budget - 1)
           end
         in
         stalk 200;
         (match Supervisor.proc sv with
          | Some p when Process.is_alive p ->
            Process.kill p;
            true
          | Some _ | None -> false))

(* Walk a blk plan; same live-target discipline as the net runner. *)
let run_blk_plan k ~sv ~nvme ?(stats = new_injector_stats ()) plan =
  let eng = k.Kernel.eng in
  let t0 = Engine.now eng in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-fault-injector"
       (fun () ->
          List.iter
            (fun { bat_ns; bfault } ->
               let dt = t0 + bat_ns - Engine.now eng in
               if dt > 0 then ignore (Fiber.sleep eng dt : Fiber.wake);
               let target_live () =
                 match Supervisor.state sv with
                 | Supervisor.Running ->
                   (match Supervisor.proc sv with
                    | Some p -> Process.is_alive p
                    | None -> false)
                 | Supervisor.Recovering -> false
                 | _ -> true
               in
               let rec wait_running budget =
                 if budget > 0 && not (target_live ()) then begin
                   ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
                   wait_running (budget - 1)
                 end
               in
               wait_running 1_000;
               if blk_inject ~eng ~sv ~nvme bfault then begin
                 stats.inj_applied <- stats.inj_applied + 1;
                 let n = blk_fault_name bfault in
                 Hashtbl.replace stats.inj_by_class n
                   (1 + Option.value ~default:0 (Hashtbl.find_opt stats.inj_by_class n))
               end
               else stats.inj_skipped <- stats.inj_skipped + 1)
            plan)
     : Fiber.t);
  stats

let blk_by_class st =
  List.map
    (fun f ->
       ( blk_fault_name f,
         Option.value ~default:0 (Hashtbl.find_opt st.inj_by_class (blk_fault_name f)) ))
    all_blk_faults

(* ---- the crash-consistency oracle ----

   One synchronous workload fiber writes patterned full pages.  Because
   Blkdev.write blocks until the cache accepts (and the queue acks) the
   page, the fiber's [last_acked] array is, at every instant it runs,
   exactly the set of acknowledged writes.  Media may only be compared
   against it at one kind of instant: immediately after an [fsync]
   returns Ok, when everything acknowledged is durable by contract and
   nothing newer has been issued (single writer).  Every supervised
   restart forces such a check, so "no acked write lost, no unacked
   write visible" is asserted at every recovery. *)

type blk_load = {
  mutable wl_writes : int;
  mutable wl_reads : int;
  mutable wl_fsyncs : int;
  mutable wl_verifies : int;
  mutable wl_io_errors : int;
  mutable wl_check_pending : bool;   (* set on Driver_restarted *)
  mutable wl_stop : bool;
  mutable wl_done : bool;
}

let io_timeout_ns = 5_000_000_000

let blk_soak_pages = 64

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
  let w = make_blk_world () in
  let rec_ = Option.map (fun s -> Sched.install w.bw_eng s) sched in
  let report =
    Kernel.run ~max_ms:120_000 w.bw_k (fun () ->
      let k = w.bw_k in
      let secret_addr = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
      Phys_mem.write k.Kernel.mem ~addr:secret_addr (Bytes.of_string secret);
      let sv =
        match
          Supervisor.start_blk k w.bw_sp ~policy:(soak_policy ~max_restarts:max_int)
            ~bdf:w.bw_bdf honest_blk_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("blk_soak: supervised start failed: " ^ e)
      in
      let ctx = install_invariants_for ~k ~bdf:w.bw_bdf sv ~secret_addr in
      let bd =
        match Supervisor.blkdev sv with
        | Some bd -> bd
        | None -> failwith "blk_soak: no blkdev after start"
      in
      let load =
        { wl_writes = 0; wl_reads = 0; wl_fsyncs = 0; wl_verifies = 0; wl_io_errors = 0;
          wl_check_pending = false; wl_stop = false; wl_done = false }
      in
      let max_outage = ref 0 in
      let reasons = Hashtbl.create 8 in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } ->
            if outage_ns > !max_outage then max_outage := outage_ns;
            if outage_ns > outage_bound_ns then
              violate ctx "recovery outage %d ms exceeds bound" (outage_ns / 1_000_000);
            load.wl_check_pending <- true
          | Supervisor.Fault_detected reason ->
            Hashtbl.replace reasons reason
              (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason))
          | _ -> ());
      (* Per-page ground truth: the last write this fiber saw acked. *)
      let last_acked = Array.make blk_soak_pages None in
      let pattern page gen =
        Bytes.init Blkdev.page_size (fun i ->
            Char.chr ((page * 131 + gen * 31 + i) land 0xff))
      in
      let verify_media why =
        load.wl_verifies <- load.wl_verifies + 1;
        Array.iteri
          (fun page data ->
             match data with
             | None -> ()
             | Some data ->
               let lba0 = page * Blkdev.page_sectors in
               for s = 0 to Blkdev.page_sectors - 1 do
                 let expect =
                   Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size
                 in
                 match Nvme_dev.media_sector w.bw_nvme ~lba:(lba0 + s) with
                 | None ->
                   violate ctx "%s: acked write to sector %d lost (never on media)"
                     why (lba0 + s)
                 | Some got ->
                   if not (Bytes.equal got expect) then
                     violate ctx "%s: media mismatch at sector %d" why (lba0 + s)
               done)
          last_acked
      in
      let fsync_and_verify why =
        match Blkdev.fsync bd ~timeout_ns:io_timeout_ns () with
        | Ok () ->
          load.wl_fsyncs <- load.wl_fsyncs + 1;
          verify_media why
        | Error e ->
          load.wl_io_errors <- load.wl_io_errors + 1;
          violate ctx "%s: fsync failed: %s" why e
      in
      let rng = Rng.create ~seed:(Int64.add seed 1L) in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load"
           (fun () ->
              let gen = ref 0 in
              while not load.wl_stop do
                if load.wl_check_pending then begin
                  load.wl_check_pending <- false;
                  fsync_and_verify "post-recovery check"
                end;
                incr gen;
                let page = Rng.int rng blk_soak_pages in
                let data = pattern page !gen in
                (match
                   Blkdev.write bd ~timeout_ns:io_timeout_ns
                     ~lba:(page * Blkdev.page_sectors) data ()
                 with
                 | Ok () ->
                   load.wl_writes <- load.wl_writes + 1;
                   last_acked.(page) <- Some data
                 | Error e ->
                   load.wl_io_errors <- load.wl_io_errors + 1;
                   violate ctx "write to page %d failed: %s" page e);
                (* Read-back: the cache must agree with the last ack. *)
                if !gen mod 4 = 0 then begin
                  let rp = Rng.int rng blk_soak_pages in
                  match last_acked.(rp) with
                  | None -> ()
                  | Some expect ->
                    (match
                       Blkdev.read bd ~timeout_ns:io_timeout_ns
                         ~lba:(rp * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors ()
                     with
                     | Ok got ->
                       load.wl_reads <- load.wl_reads + 1;
                       if not (Bytes.equal got expect) then
                         violate ctx "read of page %d disagrees with last acked write" rp
                     | Error e ->
                       load.wl_io_errors <- load.wl_io_errors + 1;
                       violate ctx "read of page %d failed: %s" rp e)
                end;
                if !gen mod 6 = 0 then fsync_and_verify "periodic check";
                ignore (Fiber.sleep w.bw_eng 50_000 : Fiber.wake)
              done;
              load.wl_done <- true)
         : Fiber.t);
      let plan =
        match plan with
        | Some p -> p
        | None -> random_blk_plan ~seed ~duration_ns:(duration_ms * 1_000_000) ~n:n_faults ()
      in
      let stats = run_blk_plan k ~sv ~nvme:w.bw_nvme plan in
      ignore (Fiber.sleep w.bw_eng ((duration_ms + 200) * 1_000_000) : Fiber.wake);
      let rec drain budget =
        if budget > 0 && Supervisor.state sv = Supervisor.Recovering then begin
          ignore (Fiber.sleep w.bw_eng 10_000_000 : Fiber.wake);
          drain (budget - 1)
        end
      in
      drain 200;
      load.wl_stop <- true;
      let rec join budget =
        if budget > 0 && not load.wl_done then begin
          ignore (Fiber.sleep w.bw_eng 10_000_000 : Fiber.wake);
          join (budget - 1)
        end
      in
      join 1_000;
      (* The end-of-soak barrier: everything acked must be durable and
         the proxy's retention fully drained. *)
      fsync_and_verify "final check";
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
      let st = Supervisor.stats sv in
      if Supervisor.state sv <> Supervisor.Running then
        violate ctx "blk soak ended with supervisor not Running";
      if ctx.iv_deaths <> st.Supervisor.st_detections then
        violate ctx "detections %d but deaths %d" st.Supervisor.st_detections ctx.iv_deaths;
      { bsr_seed = seed;
        bsr_planned = List.length plan;
        bsr_applied = stats.inj_applied;
        bsr_skipped = stats.inj_skipped;
        bsr_by_class = blk_by_class stats;
        bsr_detections = st.Supervisor.st_detections;
        bsr_restarts = st.Supervisor.st_restarts;
        bsr_deaths = ctx.iv_deaths;
        bsr_state = Supervisor.state sv;
        bsr_writes = load.wl_writes;
        bsr_reads = load.wl_reads;
        bsr_fsyncs = load.wl_fsyncs;
        bsr_verifies = load.wl_verifies;
        bsr_io_errors = load.wl_io_errors;
        bsr_max_outage_ns = !max_outage;
        bsr_retained_end = retained;
        bsr_inflight_end = inflight;
        bsr_by_reason =
          Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
          |> List.sort (fun (ra, a) (rb, b) ->
                 (* count desc, then name: hash order must not pick the
                    tie-break winner or reports differ across replays. *)
                 match compare b a with 0 -> compare ra rb | c -> c);
        bsr_violations = List.rev ctx.iv_violations;
        bsr_sched = pending_sched })
  in
  { report with
    bsr_sched =
      finish_sched ~scenario:"blk-soak" ~seed ~sched ~eng:w.bw_eng rec_
        ~violations:report.bsr_violations }

(* ---- single-fault blk recovery latency, for the bench harness ---- *)

let measure_blk_recovery ?seed:_ fault =
  let w = make_blk_world () in
  Kernel.run ~max_ms:10_000 w.bw_k (fun () ->
      let k = w.bw_k in
      let sv =
        match
          Supervisor.start_blk k w.bw_sp ~policy:(soak_policy ~max_restarts:10)
            ~bdf:w.bw_bdf honest_blk_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("measure_blk_recovery: " ^ e)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let stop = ref false in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load"
           (fun () ->
              let gen = ref 0 in
              while not !stop do
                incr gen;
                let page = !gen mod 8 in
                let data = Bytes.make Blkdev.page_size (Char.chr (!gen land 0xff)) in
                ignore
                  (Blkdev.write bd ~timeout_ns:io_timeout_ns
                     ~lba:(page * Blkdev.page_sectors) data ()
                   : (unit, string) result);
                if !gen mod 4 = 0 then
                  ignore (Blkdev.fsync bd ~timeout_ns:io_timeout_ns () : (unit, string) result);
                ignore (Fiber.sleep w.bw_eng 50_000 : Fiber.wake)
              done)
         : Fiber.t);
      let restored = ref None in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } when !restored = None ->
            restored := Some outage_ns
          | _ -> ());
      ignore (Fiber.sleep w.bw_eng 5_000_000 : Fiber.wake);
      if not (blk_inject ~eng:w.bw_eng ~sv ~nvme:w.bw_nvme fault) then
        failwith ("measure_blk_recovery: injection not applied: " ^ blk_fault_name fault);
      let rec wait budget =
        match !restored with
        | Some _ -> ()
        | None when budget = 0 -> ()
        | None ->
          ignore (Fiber.sleep w.bw_eng 1_000_000 : Fiber.wake);
          wait (budget - 1)
      in
      wait 2_000;
      stop := true;
      let st = Supervisor.stats sv in
      match !restored with
      | None ->
        failwith ("measure_blk_recovery: no recovery observed for " ^ blk_fault_name fault)
      | Some outage ->
        { rs_fault = "blk_" ^ blk_fault_name fault;
          rs_detect_ns = st.Supervisor.st_last_detect_latency_ns;
          rs_outage_ns = outage })

(* ---- warm standby: upgrades, poison, and the interleaving soak ---- *)

type upgrade_fault = Upgrade_during_fault | Standby_poisoned

let all_upgrade_faults = [ Upgrade_during_fault; Standby_poisoned ]

let upgrade_fault_name = function
  | Upgrade_during_fault -> "upgrade_during_fault"
  | Standby_poisoned -> "standby_poisoned"

let inject_standby_poison ~sv =
  match Supervisor.standby_proc sv with
  | Some p when Process.is_alive p ->
    Process.kill p;
    true
  | Some _ | None -> false

(* Bounded wait for the warm slot; the watchdog's [ensure] keeps
   re-warming, so Ready is eventually reached unless quarantined. *)
let wait_standby_ready ~eng sv ~budget_ms =
  let rec loop budget =
    if Supervisor.standby_status sv = Standby.Ready then true
    else if budget = 0 then false
    else begin
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      loop (budget - 1)
    end
  in
  loop budget_ms

let wait_running ~eng sv ~budget_ms =
  let rec loop budget =
    if Supervisor.state sv = Supervisor.Running then true
    else if budget = 0 then false
    else begin
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      loop (budget - 1)
    end
  in
  loop budget_ms

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
      let k = w.bw_k in
      let eng = w.bw_eng in
      let secret_addr = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
      Phys_mem.write k.Kernel.mem ~addr:secret_addr (Bytes.of_string secret);
      let sv =
        match
          Supervisor.start_blk k w.bw_sp ~policy:(warm_policy ~max_restarts:max_int)
            ~bdf:w.bw_bdf honest_blk_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("upgrade_soak: supervised start failed: " ^ e)
      in
      let ctx = install_invariants_for ~k ~bdf:w.bw_bdf sv ~secret_addr in
      let bd =
        match Supervisor.blkdev sv with
        | Some bd -> bd
        | None -> failwith "upgrade_soak: no blkdev after start"
      in
      let load =
        { wl_writes = 0; wl_reads = 0; wl_fsyncs = 0; wl_verifies = 0; wl_io_errors = 0;
          wl_check_pending = false; wl_stop = false; wl_done = false }
      in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted _ -> load.wl_check_pending <- true
          | _ -> ());
      let last_acked = Array.make blk_soak_pages None in
      let pattern page gen =
        Bytes.init Blkdev.page_size (fun i ->
            Char.chr ((page * 131 + gen * 31 + i) land 0xff))
      in
      let verify_media why =
        load.wl_verifies <- load.wl_verifies + 1;
        Array.iteri
          (fun page data ->
             match data with
             | None -> ()
             | Some data ->
               let lba0 = page * Blkdev.page_sectors in
               for s = 0 to Blkdev.page_sectors - 1 do
                 let expect =
                   Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size
                 in
                 match Nvme_dev.media_sector w.bw_nvme ~lba:(lba0 + s) with
                 | None ->
                   violate ctx "%s: acked write to sector %d lost (never on media)"
                     why (lba0 + s)
                 | Some got ->
                   if not (Bytes.equal got expect) then
                     violate ctx "%s: media mismatch at sector %d" why (lba0 + s)
               done)
          last_acked
      in
      let fsync_and_verify why =
        match Blkdev.fsync bd ~timeout_ns:io_timeout_ns () with
        | Ok () ->
          load.wl_fsyncs <- load.wl_fsyncs + 1;
          verify_media why
        | Error e ->
          load.wl_io_errors <- load.wl_io_errors + 1;
          violate ctx "%s: fsync failed: %s" why e
      in
      let rng = Rng.create ~seed in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load"
           (fun () ->
              let gen = ref 0 in
              while not load.wl_stop do
                if load.wl_check_pending then begin
                  load.wl_check_pending <- false;
                  fsync_and_verify "post-recovery check"
                end;
                incr gen;
                let page = Rng.int rng blk_soak_pages in
                let data = pattern page !gen in
                (match
                   Blkdev.write bd ~timeout_ns:io_timeout_ns
                     ~lba:(page * Blkdev.page_sectors) data ()
                 with
                 | Ok () ->
                   load.wl_writes <- load.wl_writes + 1;
                   last_acked.(page) <- Some data
                 | Error e ->
                   load.wl_io_errors <- load.wl_io_errors + 1;
                   violate ctx "write to page %d failed: %s" page e);
                if !gen mod 6 = 0 then begin
                  match Blkdev.fsync bd ~timeout_ns:io_timeout_ns () with
                  | Ok () -> load.wl_fsyncs <- load.wl_fsyncs + 1
                  | Error e ->
                    load.wl_io_errors <- load.wl_io_errors + 1;
                    violate ctx "periodic fsync failed: %s" e
                end;
                ignore (Fiber.sleep eng 50_000 : Fiber.wake)
              done;
              load.wl_done <- true)
         : Fiber.t);
      (* Let the first writes land and the first standby warm up. *)
      ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
      for i = 1 to interleavings do
        (match Rng.int rng 6 with
         | 0 ->
           (* Plain live upgrade: zero-loss swap to the standby. *)
           ignore (wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
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
           ignore (wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
           ignore (blk_inject ~eng ~sv ~nvme:w.bw_nvme Bcrash : bool)
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
           ignore (wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
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
           ignore (wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
           let delay_ns = 200_000 + Rng.int rng 3_000_000 in
           ignore
             (Process.spawn_fiber (Process.kernel_process k.Kernel.procs)
                ~name:"upgrade-crasher" (fun () ->
                    ignore (Fiber.sleep eng delay_ns : Fiber.wake);
                    ignore (blk_inject ~eng ~sv ~nvme:w.bw_nvme Bcrash : bool))
              : Fiber.t);
           ignore (Supervisor.upgrade sv : (unit, string) result));
        if not (wait_running ~eng sv ~budget_ms:5_000) then
          violate ctx "interleaving %d: supervisor not Running afterwards" i
        else begin
          (* The media sweep must not race the writer: hand the check to
             the load fiber (the only mutator of [last_acked]), exactly
             like the post-recovery checks. *)
          load.wl_check_pending <- true;
          let rec wait_check budget =
            if budget > 0 && load.wl_check_pending then begin
              ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
              wait_check (budget - 1)
            end
          in
          wait_check 2_000
        end
      done;
      load.wl_stop <- true;
      let rec join budget =
        if budget > 0 && not load.wl_done then begin
          ignore (Fiber.sleep eng 10_000_000 : Fiber.wake);
          join (budget - 1)
        end
      in
      join 1_000;
      fsync_and_verify "final check";
      let st = Supervisor.stats sv in
      if Supervisor.state sv <> Supervisor.Running then
        violate ctx "upgrade soak ended with supervisor not Running";
      let _, poisoned = Supervisor.standby_stats sv in
      { usr_seed = seed;
        usr_interleavings = interleavings;
        usr_upgrades = st.Supervisor.st_upgrades;
        usr_warm_swaps = st.Supervisor.st_warm_swaps;
        usr_cold_restarts = st.Supervisor.st_restarts - st.Supervisor.st_warm_swaps;
        usr_poisoned = poisoned;
        usr_writes = load.wl_writes;
        usr_fsyncs = load.wl_fsyncs;
        usr_verifies = load.wl_verifies;
        usr_io_errors = load.wl_io_errors;
        usr_state = Supervisor.state sv;
        usr_violations = invariant_violations ctx;
        usr_sched = pending_sched })
  in
  { report with
    usr_sched =
      finish_sched ~scenario:"upgrade-soak" ~seed ~sched ~eng:w.bw_eng rec_
        ~violations:report.usr_violations }

(* ---- per-class warm failover latency, for sud-bench/8 ---- *)

let measure_warm_blk_recovery ?seed:_ fault =
  let w = make_blk_world () in
  Kernel.run ~max_ms:10_000 w.bw_k (fun () ->
      let k = w.bw_k in
      let sv =
        match
          Supervisor.start_blk k w.bw_sp ~policy:(warm_policy ~max_restarts:10)
            ~bdf:w.bw_bdf honest_blk_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("measure_warm_blk_recovery: " ^ e)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let stop = ref false in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load"
           (fun () ->
              let gen = ref 0 in
              while not !stop do
                incr gen;
                let page = !gen mod 8 in
                let data = Bytes.make Blkdev.page_size (Char.chr (!gen land 0xff)) in
                ignore
                  (Blkdev.write bd ~timeout_ns:io_timeout_ns
                     ~lba:(page * Blkdev.page_sectors) data ()
                   : (unit, string) result);
                if !gen mod 4 = 0 then
                  ignore (Blkdev.fsync bd ~timeout_ns:io_timeout_ns () : (unit, string) result);
                ignore (Fiber.sleep w.bw_eng 50_000 : Fiber.wake)
              done)
         : Fiber.t);
      let restored = ref None in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } when !restored = None ->
            restored := Some outage_ns
          | _ -> ());
      ignore (Fiber.sleep w.bw_eng 5_000_000 : Fiber.wake);
      (* The whole point is the warm path: never inject before the
         standby is parked and Ready. *)
      if not (wait_standby_ready ~eng:w.bw_eng sv ~budget_ms:2_000) then
        failwith "measure_warm_blk_recovery: standby never became Ready";
      if not (blk_inject ~eng:w.bw_eng ~sv ~nvme:w.bw_nvme fault) then
        failwith
          ("measure_warm_blk_recovery: injection not applied: " ^ blk_fault_name fault);
      let rec wait budget =
        match !restored with
        | Some _ -> ()
        | None when budget = 0 -> ()
        | None ->
          ignore (Fiber.sleep w.bw_eng 1_000_000 : Fiber.wake);
          wait (budget - 1)
      in
      wait 2_000;
      stop := true;
      let st = Supervisor.stats sv in
      match !restored with
      | None ->
        failwith
          ("measure_warm_blk_recovery: no recovery observed for " ^ blk_fault_name fault)
      | Some outage ->
        if Supervisor.warm_swaps sv = 0 then
          failwith
            ("measure_warm_blk_recovery: recovery for " ^ blk_fault_name fault
             ^ " took the cold path");
        { rs_fault = "blk_" ^ blk_fault_name fault;
          rs_detect_ns = st.Supervisor.st_last_detect_latency_ns;
          rs_outage_ns = outage })
