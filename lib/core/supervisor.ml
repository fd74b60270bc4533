(* Kernel-side driver supervisor: closes the paper's detect -> contain ->
   recover loop automatically instead of leaving kill/restart to the
   administrator (§4.1, §5.2).  One supervisor per supervised device; a
   kernel watchdog fiber polls the misbehavior signals and a heartbeat,
   and on detection quiesces the proxy, kills the driver, resets the
   device and restarts the driver with exponential backoff under a
   restart budget.  Crash-looping past the budget quarantines the
   device.

   The supervisor is class-independent: detection and the kill/reset/
   restart machinery run through the unified proxy lifecycle
   ({!Proxy_class}: hung / heartbeat / quiesce / resume), with only the
   containment of each class's kernel-facing object (netdev backlog,
   blkdev staging) specialized per target. *)

type policy = {
  tick_ns : int;
  hang_timeout_ns : int;
  backoff_initial_ns : int;
  backoff_max_ns : int;
  max_restarts : int;
  restart_window_ns : int;
  backlog_limit : int;
  standby : bool;
}

let default_policy =
  { tick_ns = 5_000_000;
    hang_timeout_ns = 20_000_000;
    backoff_initial_ns = 2_000_000;
    backoff_max_ns = 200_000_000;
    max_restarts = 5;
    restart_window_ns = 2_000_000_000;
    backlog_limit = 256;
    standby = true }

(* Per-tick thresholds: dropped async downcalls that count as a ring
   flood, and notification-kick token-bucket overflows that count as a
   doorbell flood. *)
let flood_threshold = 512
let overflow_threshold = 512

(* Every supervised driver generation runs as this unprivileged uid. *)
let driver_uid = 1000

type state = Running | Recovering | Quarantined | Stopped

type event =
  | Fault_detected of string
  | Driver_killed
  | Driver_restarted of { restarts : int; outage_ns : int }
  | Driver_quarantined of string

type stats = {
  st_state : state;
  st_restarts : int;
  st_detections : int;
  st_last_reason : string option;
  st_last_detect_latency_ns : int;
  st_last_recovery_ns : int;
  st_warm_swaps : int;
  st_upgrades : int;
}

(* The class-specific containment state that survives generations. *)
type target = Tgt_net of Netdev.t | Tgt_blk of Proxy_blk.persist

(* One supervisor, typed by its driver class: ['d] the driver the
   factory builds, ['p] the proxy of every generation. *)
type ('d, 'p) sup = {
  k : Kernel.t;
  sp : Safe_pci.t;
  bdf : Bus.bdf;
  name : string;
  policy : policy;
  target : target;
  cls : ('d, 'p) Driver_host.cls;   (* how every later generation launches *)
  factory : attempt:int -> 'd;
  kickq : Sync.Waitq.t;
  mutable state : state;
  mutable cur : 'p Driver_host.gen option;
  mutable listeners : (event -> unit) list;
  mutable restarts : int;
  mutable detections : int;
  mutable last_reason : string option;
  mutable last_detect_latency : int;
  mutable last_recovery : int;
  mutable restart_times : int list;     (* attempt timestamps, newest first *)
  mutable last_ok : int;                (* last instant every check passed *)
  mutable gen : int;                    (* driver generation; guards exit hooks *)
  mutable was_up : bool;
  (* per-generation signal baselines *)
  mutable base_malformed : int;
  mutable base_storms : int;
  mutable base_faults : int;
  mutable last_dropped : int;
  mutable base_proto : int;
  mutable last_overflow : int;
  quota : Quota.t;
  (* Warm-standby generation: pre-forked and parked so a lethal fault
     swaps instead of cold-starting.  None when policy.standby is off. *)
  mutable sb : Driver_host.warm Standby.t option;
  mutable warm_swaps : int;
  mutable upgrades : int;
  sm : metrics;
}
and metrics = {
  sm_detections : Sud_obs.Metrics.counter;
  sm_restarts : Sud_obs.Metrics.counter;
  sm_quarantines : Sud_obs.Metrics.counter;
  sm_detect_ns : Sud_obs.Metrics.histogram;   (* fault -> detection latency *)
  sm_outage_ns : Sud_obs.Metrics.histogram;   (* detection -> restarted *)
}

type t = T : ('d, 'p) sup -> t

let now t = Engine.now t.k.Kernel.eng

let klogf t lvl fmt = Klog.printk t.k.Kernel.klog lvl fmt

let emit t ev = List.iter (fun f -> f ev) (List.rev t.listeners)

let set_sysfs_state t v =
  match Sysfs.find_bdf t.k.Kernel.sysfs t.bdf with
  | Some e -> Sysfs.set_attr e "sud_state" v
  | None -> ()

(* IOMMU faults attributed to this device since boot. *)
let count_faults t =
  List.fold_left
    (fun acc f ->
       match f with
       | Bus.Iommu_fault { source; _ } when source = t.bdf -> acc + 1
       | _ -> acc)
    0
    (Iommu.faults t.k.Kernel.iommu)

(* Adopt a fresh driver generation: record it, rebase the signal
   baselines, and arm a death-kick so the watchdog reacts to process
   exit immediately rather than on the next tick. *)
let install t g =
  t.cur <- Some g;
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let chan = Driver_host.chan g in
  let um = Uchan.metrics chan in
  t.base_malformed <- Sud_obs.Metrics.get um.Uchan.um_malformed;
  t.last_dropped <- Sud_obs.Metrics.get um.Uchan.um_dropped;
  t.base_storms <- Safe_pci.grant_storms (Driver_host.grant g);
  t.base_faults <- count_faults t;
  (* The channel is recreated each generation, so its conformance counts
     restart from zero; the quota (and its overflow counter) survives. *)
  t.base_proto <- Uchan.proto_violations chan;
  t.last_overflow <- Quota.notify_overflows t.quota;
  Process.on_exit (Driver_host.proc g) (fun () ->
      if t.gen = gen && t.state = Running then
        ignore (Sync.Waitq.signal t.kickq : bool))

(* One pass over every misbehavior signal; [None] means healthy.
   Entirely class-independent: every probe goes through the generation
   or its proxy-class instance. *)
let health_check t =
  match t.cur with
  | None -> Some "no driver process"
  | Some g ->
    let chan = Driver_host.chan g in
    let um = Uchan.metrics chan in
    if not (Process.is_alive (Driver_host.proc g)) then Some "driver process died"
    else if Uchan.is_closed chan then Some "uchan closed"
    else if count_faults t > t.base_faults then Some "DMA violation (IOMMU fault)"
    else if Safe_pci.grant_storms (Driver_host.grant g) > t.base_storms then
      Some "interrupt storm escalation"
    else if Sud_obs.Metrics.get um.Uchan.um_malformed > t.base_malformed then
      Some "malformed uchan message"
    else if Uchan.proto_violations chan > t.base_proto then
      Some "uchan protocol violation"
    else if Sud_obs.Metrics.get um.Uchan.um_dropped - t.last_dropped >= flood_threshold then
      Some "uchan ring flood"
    else if Quota.notify_overflows t.quota - t.last_overflow >= overflow_threshold then
      Some "notification flood (quota overflow)"
    else if Proxy_class.hung (Driver_host.class_of g) then Some "upcall hung"
    else begin
      t.last_dropped <- Sud_obs.Metrics.get um.Uchan.um_dropped;
      t.last_overflow <- Quota.notify_overflows t.quota;
      (* The ping is answered inline by the driver's queue-0 service
         loop, bounded by the channel's hang timeout — the heartbeat
         deadline.  Class-independent: one probe for every proxy. *)
      match Proxy_class.heartbeat (Driver_host.class_of g) with
      | Ok () -> None
      | Error why -> Some why
    end

(* During recovery the netdev degrades instead of vanishing: frames land
   in the bounded per-queue backlog and replay once the fresh driver
   registers. *)
let backlog_ops t netdev =
  { Netdev.ndo_open = (fun () -> Ok ());
    ndo_stop = (fun () -> ());
    ndo_start_xmit =
      (fun ~queue skb -> Netdev.backlog_push netdev ~queue ~limit:t.policy.backlog_limit skb);
    ndo_do_ioctl = (fun ~cmd:_ ~arg:_ -> Error "device recovering") }

(* Replay queue by queue, each in FIFO order.  dev_xmit re-selects the
   queue with the same RSS hash that parked the frame, so a flow's
   packets replay onto their original queue in their original order. *)
let replay_backlog t netdev =
  let n = ref 0 in
  for q = 0 to Netdev.tx_queues netdev - 1 do
    let rec go () =
      match Netdev.backlog_pop netdev ~queue:q with
      | None -> ()
      | Some skb ->
        ignore (Netstack.dev_xmit t.k.Kernel.net netdev skb : [ `Sent | `Dropped ]);
        incr n;
        go ()
    in
    go ()
  done;
  !n

(* Containment of the class's kernel-facing object, shared by recovery
   and upgrade: a net target keeps its netdev but drops carrier and parks
   transmits in the backlog; a blk target is detached by the proxy's
   quiesce, and its requests park in the blkdev staging queue until the
   replay. *)
let contain t =
  match t.target with
  | Tgt_net netdev ->
    t.was_up <- Netdev.is_up netdev;
    Netdev.netif_carrier_off netdev;
    Netdev.set_ops netdev (backlog_ops t netdev);
    (* Senders parked on any stopped queue must fall through to the backlog. *)
    Netdev.netif_tx_wake_all_queues netdev
  | Tgt_blk _ -> ()

let quiesce_current t =
  match t.cur with Some g -> Proxy_class.quiesce (Driver_host.class_of g) | None -> ()

(* Kill the current generation (its grant is revoked via the exit
   hooks) and function-level-reset the device. *)
let kill_and_reset t =
  (match t.cur with
   | Some g ->
     Driver_host.kill g;
     t.cur <- None
   | None -> ());
  match Safe_pci.reset_device t.sp t.bdf with
  | Ok () -> ()
  | Error e -> klogf t Klog.Warn "sud: supervisor(%s): reset failed: %s" t.name e

let unregister_netdev t netdev =
  match Netstack.find_netdev t.k.Kernel.net (Netdev.name netdev) with
  | Some d when d == netdev -> Netstack.unregister_netdev t.k.Kernel.net netdev
  | Some _ | None -> ()

let quarantine t reason =
  t.state <- Quarantined;
  Sud_obs.Metrics.incr t.sm.sm_quarantines;
  (* No further generations will run; tear down the parked one too. *)
  (match t.sb with Some sb -> Standby.disable sb | None -> ());
  (match t.target with
   | Tgt_net netdev ->
     let dropped = Netdev.backlog_flush_drop netdev in
     Netdev.netif_carrier_off netdev;
     Netdev.set_up netdev false;
     unregister_netdev t netdev;
     klogf t Klog.Err
       "sud: supervisor(%s): quarantined after %d restarts (%s); netdev removed, %d backlogged frames dropped"
       t.name t.restarts reason dropped
   | Tgt_blk persist ->
     (* The blkdev stays registered (readable state for the operator) but
        detached for good; retention is never dropped, so nothing
        acknowledged is lost — it is just no longer served. *)
     let parked =
       match Proxy_blk.persist_blkdev persist with
       | Some bd ->
         if Blkdev.attached bd then Blkdev.detach bd;
         Blkdev.staged_requests bd
       | None -> 0
     in
     klogf t Klog.Err
       "sud: supervisor(%s): quarantined after %d restarts (%s); blkdev detached, %d requests parked, %d writes retained"
       t.name t.restarts reason parked
       (Proxy_blk.persist_retained persist));
  set_sysfs_state t "quarantined";
  emit t (Driver_quarantined reason)

(* The quota survives the restart (a crash-looper cannot launder its
   footprint by dying); the epoch tracks the generation, so the new
   channel rejects frames replayed from the dead one. *)
let start_generation t =
  Driver_host.launch t.k t.sp ~uid:driver_uid ~name:t.name ~bdf:t.bdf
    ~hang_timeout_ns:t.policy.hang_timeout_ns ~quota:t.quota
    ~epoch:(t.gen land Msg.max_epoch) t.cls
    (t.factory ~attempt:(t.restarts + 1))

(* --- Warm-standby machinery -------------------------------------------- *)

(* The class-agnostic snapshot of the live generation's kernel-facing
   state, captured before the kill so the successor can adopt it.  When
   the generation is already gone (process reaped before we got here)
   the persistent target objects are the fallback truth. *)
let capture_handoff t =
  match t.cur with
  | Some g -> Proxy_class.handoff (Driver_host.class_of g)
  | None ->
    (match t.target with
     | Tgt_net netdev -> Proxy_net.Net_state { dev = Some netdev; up = t.was_up }
     | Tgt_blk persist -> Proxy_blk.Blk_state persist)

(* Claim the parked standby (if warm for this generation) and activate
   it against the persistent target: open the grant (free once the dead
   generation is reaped), run driver init on the freshly reset device,
   and wait for its register.  The generation comes back still parked —
   the caller adopts the handoff state into it before resuming.  Any
   failure — no standby, poisoned at the swap instant, driver init
   rejected on the reset device — falls back to the cold path. *)
let take_warm t ~attempt =
  match t.sb with
  | None -> None
  | Some sb ->
    (match Standby.take sb ~tag:t.gen with
     | None -> None
     | Some w ->
       (match Driver_host.activate w t.cls (t.factory ~attempt) with
        | Ok g -> Some g
        | Error e ->
          klogf t Klog.Warn
            "sud: supervisor(%s): warm activation failed (%s); falling back to cold restart"
            t.name e;
          None))

(* Install a fresh generation and restore the datapath: adopt the
   captured handoff state (a cold generation adopts too — its parked
   flag is already clear, so this is a no-op for it), resume through the
   unified lifecycle, reopen/replay the class's kernel-facing object,
   and start warming the next standby.  Returns the replayed count. *)
let swap_in t g ~handoff_state =
  install t g;
  Proxy_class.adopt (Driver_host.class_of g) handoff_state;
  Proxy_class.resume (Driver_host.class_of g);
  let replayed =
    match t.target with
    | Tgt_net netdev ->
      (if t.was_up then
         match Netstack.ifconfig_up t.k.Kernel.net netdev with
         | Ok () -> ()
         | Error e -> klogf t Klog.Warn "sud: supervisor(%s): reopen failed: %s" t.name e);
      replay_backlog t netdev
    | Tgt_blk persist -> Proxy_blk.persist_inflight persist
  in
  t.state <- Running;
  set_sysfs_state t "running";
  (match t.sb with Some sb -> Standby.ensure sb ~tag:t.gen | None -> ());
  replayed

let recover t reason =
  let detect_t = now t in
  t.detections <- t.detections + 1;
  Sud_obs.Metrics.incr t.sm.sm_detections;
  t.last_reason <- Some reason;
  t.last_detect_latency <- detect_t - t.last_ok;
  Sud_obs.Metrics.observe t.sm.sm_detect_ns t.last_detect_latency;
  (* The detect span closes the causal loop: a DMA-violation detection is
     parented to the IOMMU fault span that triggered it (which in turn
     parents to the uchan RPC), so the JSONL trace reads
     rpc -> fault -> detect -> kill -> restart. *)
  let sp_detect =
    if Sud_obs.Trace.on () then begin
      let parent =
        if String.length reason >= 3 && String.sub reason 0 3 = "DMA" then
          Sud_obs.Trace.recall (Printf.sprintf "iommu.fault.last:%d" t.bdf)
        else 0
      in
      Sud_obs.Trace.emit ~parent ~cat:"sup" ~name:"detect"
        ~attrs:[ "driver", t.name; "reason", reason ] ()
    end
    else 0
  in
  klogf t Klog.Warn "sud: supervisor(%s): detected fault (%s); recovering" t.name reason;
  emit t (Fault_detected reason);
  t.state <- Recovering;
  set_sysfs_state t "recovering";
  (* Contain the kernel-facing object, snapshot the class state while the
     dying generation's proxy is still around (the successor, warm or
     cold, adopts it after activation), then quiesce the proxy, kill the
     driver and reset the device. *)
  contain t;
  let handoff_state = capture_handoff t in
  quiesce_current t;
  kill_and_reset t;
  let sp_kill =
    if sp_detect <> 0 then
      Sud_obs.Trace.emit ~parent:sp_detect ~cat:"sup" ~name:"kill"
        ~attrs:[ "driver", t.name ] ()
    else 0
  in
  emit t Driver_killed;
  (* Shared bring-up tail for both the warm swap and the cold restart. *)
  let finish g ~warm =
    t.restarts <- t.restarts + 1;
    Sud_obs.Metrics.incr t.sm.sm_restarts;
    if warm then t.warm_swaps <- t.warm_swaps + 1;
    let replayed = swap_in t g ~handoff_state in
    let outage = now t - detect_t in
    t.last_recovery <- outage;
    Sud_obs.Metrics.observe t.sm.sm_outage_ns outage;
    if sp_kill <> 0 then
      ignore
        (Sud_obs.Trace.emit ~parent:sp_kill ~dur_ns:outage ~cat:"sup"
           ~name:(if warm then "swap" else "restart")
           ~attrs:[ "driver", t.name; "gen", string_of_int t.restarts ] ());
    t.last_ok <- now t;
    klogf t Klog.Info
      "sud: supervisor(%s): driver %s (gen %d) after %d us outage, %d %s replayed"
      t.name
      (if warm then "swapped to warm standby" else "restarted")
      t.restarts (outage / 1_000) replayed
      (match t.target with Tgt_net _ -> "frames" | Tgt_blk _ -> "requests");
    emit t (Driver_restarted { restarts = t.restarts; outage_ns = outage })
  in
  let budget_left () =
    let window_start = now t - t.policy.restart_window_ns in
    t.restart_times <- List.filter (fun ts -> ts >= window_start) t.restart_times;
    List.length t.restart_times < t.policy.max_restarts
  in
  (* Warm path: swap the parked standby in with no backoff and no spawn.
     The restart budget still applies — a crash-looper must not launder
     its restarts through the standby. *)
  let warmed =
    budget_left ()
    &&
    match take_warm t ~attempt:(t.restarts + 1) with
    | Some g ->
      t.restart_times <- now t :: t.restart_times;
      finish g ~warm:true;
      true
    | None -> false
  in
  if not warmed then begin
    (* Cold path: restart with exponential backoff under the budget. *)
    let rec attempt_start backoff_exp =
      if not (budget_left ()) then begin
        if sp_kill <> 0 then
          ignore
            (Sud_obs.Trace.emit ~parent:sp_kill ~cat:"sup" ~name:"quarantine"
               ~attrs:[ "driver", t.name ] ());
        quarantine t
          (Printf.sprintf "restart budget exhausted (%d in window); last fault: %s"
             (List.length t.restart_times) reason)
      end
      else begin
        t.restart_times <- now t :: t.restart_times;
        let delay =
          min (t.policy.backoff_initial_ns * (1 lsl min backoff_exp 16))
            t.policy.backoff_max_ns
        in
        ignore (Fiber.sleep t.k.Kernel.eng delay : Fiber.wake);
        match start_generation t with
        | Error e ->
          klogf t Klog.Warn "sud: supervisor(%s): restart attempt failed: %s" t.name e;
          attempt_start (backoff_exp + 1)
        | Ok g -> finish g ~warm:false
      end
    in
    attempt_start 0
  end

let rec watchdog t () =
  match t.state with
  | Quarantined | Stopped -> ()
  | Running | Recovering ->
    ignore (Sync.Waitq.wait_timeout t.k.Kernel.eng t.kickq t.policy.tick_ns : Fiber.wake);
    (match t.state with
     | Running ->
       (match health_check t with
        | None ->
          t.last_ok <- now t;
          (* Converge the standby each healthy tick: a stale or poisoned
             parked generation is discarded and a fresh one warmed. *)
          (match t.sb with Some sb -> Standby.ensure sb ~tag:t.gen | None -> ())
        | Some reason -> recover t reason)
     | Recovering | Quarantined | Stopped -> ());
    watchdog t ()

(* --- Live upgrade / forced failover ------------------------------------ *)

(* Wait (bounded) for a warm standby to be parked Ready for the current
   generation.  Returns false on timeout or when warming is disabled. *)
let wait_standby_ready t ~timeout_ns =
  match t.sb with
  | None -> false
  | Some sb ->
    Standby.ensure sb ~tag:t.gen;
    let deadline = now t + timeout_ns in
    let rec poll () =
      match Standby.status sb with
      | Standby.Ready -> true
      | Standby.Disabled -> false
      | Standby.Idle | Standby.Warming ->
        if now t >= deadline then false
        else begin
          ignore (Fiber.sleep t.k.Kernel.eng 1_000_000 : Fiber.wake);
          poll ()
        end
    in
    poll ()

(* Live upgrade: quiesce the running generation, drain its in-flight
   work to a barrier, hand the class state to the warm standby and
   resume — the planned twin of the fault path, sharing swap_in.  Not a
   detection: no fault counters move and no restart budget is consumed.
   If the primary dies mid-drain (double failover) the swap proceeds —
   the undrained in-flight set replays through resume, same as a crash.
   A standby lost at the swap instant (poisoned) is never installed;
   the upgrade falls back to a cold start of the new generation. *)
let upgrade (T t) =
  match t.state with
  | Quarantined -> Error "driver is quarantined"
  | Stopped -> Error "supervisor is stopped"
  | Recovering -> Error "driver is recovering"
  | Running ->
    if t.sb = None then Error "warm standby disabled by policy"
    else if not (wait_standby_ready t ~timeout_ns:1_000_000_000) then
      Error "no warm standby became ready"
    else begin
      let t0 = now t in
      t.state <- Recovering;
      set_sysfs_state t "upgrading";
      klogf t Klog.Info "sud: supervisor(%s): live upgrade: draining generation %d" t.name
        t.restarts;
      (* Contain exactly like a recovery, but quiesce first and drain
         before the handoff is captured. *)
      contain t;
      quiesce_current t;
      (* Drain in-flight block requests to a barrier so the handoff is
         clean; escape if the primary dies under us or the drain stalls
         (whatever remains replays in tag order on resume). *)
      (match t.target with
       | Tgt_blk persist ->
         let deadline = now t + 200_000_000 in
         let rec drain () =
           if Proxy_blk.persist_inflight persist > 0 && now t < deadline then
             match t.cur with
             | Some g when Process.is_alive (Driver_host.proc g) ->
               ignore (Fiber.sleep t.k.Kernel.eng 200_000 : Fiber.wake);
               drain ()
             | Some _ | None ->
               klogf t Klog.Warn
                 "sud: supervisor(%s): primary died during upgrade drain; double failover"
                 t.name
         in
         drain ()
       | Tgt_net _ -> ());
      let handoff_state = capture_handoff t in
      kill_and_reset t;
      let attempt = t.restarts + t.upgrades + 1 in
      let installed =
        match take_warm t ~attempt with
        | Some g ->
          ignore (swap_in t g ~handoff_state : int);
          true
        | None ->
          (* Standby evaporated between the readiness check and the swap
             (e.g. poisoned while draining): cold-start the new
             generation rather than leaving the device dead. *)
          (match start_generation t with
           | Ok g ->
             ignore (swap_in t g ~handoff_state : int);
             true
           | Error e ->
             klogf t Klog.Err "sud: supervisor(%s): upgrade failed cold too: %s" t.name e;
             false)
      in
      if installed then begin
        t.upgrades <- t.upgrades + 1;
        t.last_ok <- now t;
        klogf t Klog.Info "sud: supervisor(%s): live upgrade complete (gen %d, %d upgrades)"
          t.name t.restarts t.upgrades;
        emit t (Driver_restarted { restarts = t.restarts; outage_ns = now t - t0 });
        Ok ()
      end
      else begin
        quarantine t "upgrade failed: no standby and cold start failed";
        Error "upgrade failed: no generation could be started"
      end
    end

(* Operator-forced failover: exercise the exact fault path (detection,
   kill, FLR, warm swap) on demand — the fire drill for the standby. *)
let failover (T t) =
  match t.state with
  | Quarantined -> Error "driver is quarantined"
  | Stopped -> Error "supervisor is stopped"
  | Recovering -> Error "driver is recovering"
  | Running ->
    recover t "administrative failover";
    (match t.state with
     | Running -> Ok ()
     | Quarantined -> Error "failover exhausted the restart budget; quarantined"
     | Recovering | Stopped -> Error "failover did not restore the driver")

let make ~target ~cls ~factory k sp ~policy ~name ~bdf ~quota g =
  let t =
    { k;
      sp;
      bdf;
      name;
      policy;
      target;
      cls;
      factory;
      kickq = Sync.Waitq.create ();
      state = Running;
      cur = None;
      listeners = [];
      restarts = 0;
      detections = 0;
      last_reason = None;
      last_detect_latency = 0;
      last_recovery = 0;
      restart_times = [];
      last_ok = Engine.now k.Kernel.eng;
      gen = 0;
      was_up = false;
      base_malformed = 0;
      base_storms = 0;
      base_faults = 0;
      last_dropped = 0;
      base_proto = 0;
      last_overflow = 0;
      quota;
      sb = None;
      warm_swaps = 0;
      upgrades = 0;
      sm =
        (let labels = [ "driver", name ] in
         let c n = Sud_obs.Metrics.counter ~labels ~subsystem:"supervisor" ~name:n () in
         let h n = Sud_obs.Metrics.histogram ~labels ~subsystem:"supervisor" ~name:n () in
         { sm_detections = c "detections";
           sm_restarts = c "restarts";
           sm_quarantines = c "quarantines";
           sm_detect_ns = h "detect_latency_ns";
           sm_outage_ns = h "outage_ns" }) }
  in
  if policy.standby then begin
    (* The standby generation: process forked, rings allocated and
       charged to the same quota ledger, parked before attach.  The
       grant/DMA pool/driver init are deferred to activation — the
       device has one grant and a reset-on-open, so the parked twin
       must not touch it while the primary owns it. *)
    let warm ~tag =
      (* Mirror the live generation's ring geometry: the swapped-in
         driver must see the same queue count (and thus the same MSI-X
         vector layout) the datapath negotiated. *)
      let queues = match t.cur with Some g -> Driver_host.queues g | None -> 1 in
      Driver_host.prefork t.k t.sp ~uid:driver_uid ~name:t.name ~bdf:t.bdf
        ~hang_timeout_ns:t.policy.hang_timeout_ns ~queues ~quota:t.quota
        ~epoch:(tag land Msg.max_epoch) ()
    in
    let probe w =
      let proc = Driver_host.warm_proc w in
      let chan = Driver_host.warm_chan w in
      if not (Process.is_alive proc) then Some "standby process died"
      else if Uchan.is_closed chan then Some "standby uchan closed"
      else if Uchan.proto_violations chan > 0 then Some "standby protocol violation"
      else if
        Sud_obs.Metrics.get (Uchan.metrics chan).Uchan.um_malformed > 0
      then Some "standby sent malformed message"
      else None
    in
    let sb = Standby.create k ~name ~warm ~probe ~discard:Driver_host.discard_warm in
    Standby.set_on_ready sb (fun () ->
        if t.state = Running then set_sysfs_state t "standby_ready");
    t.sb <- Some sb
  end;
  install t g;
  set_sysfs_state t "running";
  (match t.sb with Some sb -> Standby.ensure sb ~tag:t.gen | None -> ());
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs)
       ~name:("supervisor:" ^ name) (watchdog t)
     : Fiber.t);
  T t

let start k sp ?(policy = default_policy) ?name ~bdf factory =
  let drv = factory ~attempt:0 in
  let name = Option.value ~default:drv.Driver_api.nd_name name in
  let quota = Quota.create k.Kernel.eng ~name () in
  match
    Driver_host.launch k sp ~uid:driver_uid ~name ~bdf ~hang_timeout_ns:policy.hang_timeout_ns
      ~quota ~epoch:0
      (Driver_host.net ~unregister_on_exit:false ())
      drv
  with
  | Error e -> Error e
  | Ok g ->
    (* Later generations take over the netdev the first one registered. *)
    let netdev = Driver_host.netdev g in
    let cls = Driver_host.net ~adopt_netdev:netdev ~unregister_on_exit:false () in
    Ok (make ~target:(Tgt_net netdev) ~cls ~factory k sp ~policy ~name ~bdf ~quota g)

let start_blk k sp ?(policy = default_policy) ?name ~bdf factory =
  let drv = factory ~attempt:0 in
  let name = Option.value ~default:drv.Driver_api.bd_name name in
  let quota = Quota.create k.Kernel.eng ~name () in
  let persist = Proxy_blk.persist_create () in
  let cls = Driver_host.blk ~adopt:persist () in
  match
    Driver_host.launch k sp ~uid:driver_uid ~name ~bdf ~hang_timeout_ns:policy.hang_timeout_ns
      ~quota ~epoch:0 cls drv
  with
  | Error e -> Error e
  | Ok g -> Ok (make ~target:(Tgt_blk persist) ~cls ~factory k sp ~policy ~name ~bdf ~quota g)

let stop (T t) =
  match t.state with
  | Stopped | Quarantined -> ()
  | Running | Recovering ->
    t.state <- Stopped;
    (match t.sb with Some sb -> Standby.disable sb | None -> ());
    (match t.cur with
     | Some g ->
       (* Quiesce-then-kill: an administrative stop goes through the same
          lifecycle edge as a recovery, so in-flight state is retained
          (blk) or backlogged (net) rather than torn mid-request. *)
       Proxy_class.quiesce (Driver_host.class_of g);
       Driver_host.kill g;
       t.cur <- None
     | None -> ());
    (match t.target with
     | Tgt_net netdev -> unregister_netdev t netdev
     | Tgt_blk _ -> ());
    set_sysfs_state t "stopped";
    ignore (Sync.Waitq.signal t.kickq : bool)

let state (T t) = t.state

let netdev (T t) =
  match t.target with
  | Tgt_net netdev -> netdev
  | Tgt_blk _ -> invalid_arg "Supervisor.netdev: blk device"

let blkdev (T t) =
  match t.target with
  | Tgt_blk persist -> Proxy_blk.persist_blkdev persist
  | Tgt_net _ -> None

let name (T t) = t.name

let current_blk (T t) : Proxy_blk.t Driver_host.gen option =
  match t.cls with Driver_host.Blk _ -> t.cur | _ -> None

let proc (T t) = Option.map Driver_host.proc t.cur
let chan (T t) = Option.map Driver_host.chan t.cur
let grant (T t) = Option.map Driver_host.grant t.cur
let quota (T t) = t.quota
let on_event (T t) f = t.listeners <- f :: t.listeners

let standby_status (T t) =
  match t.sb with
  | Some sb -> Standby.status sb
  | None -> Standby.Disabled

let standby_stats (T t) =
  match t.sb with
  | Some sb -> Standby.stats sb
  | None -> (0, 0)

let standby_proc (T t) = Option.map Driver_host.warm_proc (Option.bind t.sb Standby.peek)
let warm_swaps (T t) = t.warm_swaps
let upgrades (T t) = t.upgrades

let stats (T t) =
  { st_state = t.state;
    st_restarts = t.restarts;
    st_detections = t.detections;
    st_last_reason = t.last_reason;
    st_last_detect_latency_ns = t.last_detect_latency;
    st_last_recovery_ns = t.last_recovery;
    st_warm_swaps = t.warm_swaps;
    st_upgrades = t.upgrades }
