(* The system under test, seen from outside.  Every call the benchmark
   makes into the system's libraries is made from this file, so an
   interface change there touches one place here.  Nothing in this file
   measures or decides; it only adapts. *)

(* ---- simulated time and fibers ---- *)

type kernel = Kernel.t

let now (k : kernel) = Engine.now k.Kernel.eng
let steps (k : kernel) = Engine.steps k.Kernel.eng
let trace_hash (k : kernel) = Engine.trace_hash k.Kernel.eng
let sleep (k : kernel) ns = ignore (Fiber.sleep k.Kernel.eng ns : Fiber.wake)

let spawn (k : kernel) name f =
  ignore (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name f : Fiber.t)

let run_until (k : kernel) t = Engine.run ~max_time:t k.Kernel.eng

type waitq = Sync.Waitq.t

let waitq () = Sync.Waitq.create ()
let wait q = ignore (Sync.Waitq.wait q : Fiber.wake)
let signal q = ignore (Sync.Waitq.signal q : bool)

(* Drive the engine in 1 ms slices until [cond] holds; false when
   [budget_ns] of simulated time passed first. *)
let run_while_not (k : kernel) ~budget_ns cond =
  let deadline = now k + budget_ns in
  while (not (cond ())) && now k < deadline do
    run_until k (min deadline (now k + 1_000_000))
  done;
  cond ()

(* ---- seeded randomness ---- *)

let rng seed = Rng.create ~seed
let rand rng bound = Rng.int rng bound
let derive ~root tag = Rng.derive ~root tag

(* ---- per-kernel counters ---- *)

let cpu_labels (k : kernel) = Cpu.labels k.Kernel.cpu
let cpu_busy (k : kernel) = Cpu.busy_ns k.Kernel.cpu
let cpu_cores (k : kernel) = Cpu.cores k.Kernel.cpu

let iotlb (k : kernel) =
  let m = Iommu.metrics k.Kernel.iommu in
  (Sud_obs.Metrics.gauge_value m.Iommu.im_hits, Sud_obs.Metrics.gauge_value m.Iommu.im_misses)

let irqs (k : kernel) = Sud_obs.Metrics.get (Irq.metrics k.Kernel.irq).Irq.qm_delivered
let backlog_drops (k : kernel) = Netstack.backlog_drops k.Kernel.net

(* ---- uchan counters of one channel ---- *)

type chan_counts = {
  upcalls : int;
  downcalls : int;
  notifications : int;
  malformed : int;
  dropped : int;
  violations : int;  (* every conformance class, benign ones included *)
}

let chan_counts chan =
  let m = Uchan.metrics chan in
  let get = Sud_obs.Metrics.get in
  { upcalls = get m.Uchan.um_up;
    downcalls = get m.Uchan.um_down;
    notifications = get m.Uchan.um_notify;
    malformed = get m.Uchan.um_malformed + get m.Uchan.um_malformed_frames;
    dropped = get m.Uchan.um_dropped;
    violations =
      List.fold_left (fun acc (_, n) -> acc + n) 0
        (Conformance.class_counts (Uchan.conformance chan)) }

(* Sum of one counter over the registry entries labelled [driver]. *)
let registry_counter ~subsystem ~name ~driver =
  List.fold_left
    (fun acc g ->
       if g.Sud_obs.Metrics.g_subsystem <> subsystem then acc
       else
         List.fold_left
           (fun acc s ->
              match s.Sud_obs.Metrics.s_value with
              | Sud_obs.Metrics.Counter n
                when s.Sud_obs.Metrics.s_name = name
                     && List.mem ("driver", driver) s.Sud_obs.Metrics.s_labels ->
                acc + n
              | _ -> acc)
           acc g.Sud_obs.Metrics.g_samples)
    0 (Sud_obs.Metrics.snapshot ())

(* ---- the net rig: netperf's two machines, SUD e1000 on the DUT ---- *)

type net = { n_rig : Netperf.rig; n_started : Driver_host.started }

let net_rig ?rate_bps ~dut_cores ~peer_cores ~queues ~peer_queues () =
  let rig =
    Netperf.make_rig ?rate_bps ~dut_cores ~peer_cores ~queues ~peer_queues Netperf.Sud_driver
  in
  match rig.Netperf.started with
  | Some s -> { n_rig = rig; n_started = s }
  | None -> failwith "net rig: the DUT driver is not a SUD process"

let dut n = n.n_rig.Netperf.dut
let peer n = n.n_rig.Netperf.peer
let dut_mac n = Netdev.mac n.n_rig.Netperf.dev_dut
let rx_queues n = E1000_dev.queues n.n_rig.Netperf.nic_dut
let rxq_frames n q = E1000_dev.rx_queue_frames n.n_rig.Netperf.nic_dut ~queue:q
let net_driver_procs n = [ Process.name (Driver_host.proc n.n_started) ]
let net_chan_counts n = chan_counts (Driver_host.chan n.n_started)
let rx_pool n = Proxy_net.rx_pool_counters (Driver_host.proxy n.n_started)

let frames_per_poll n =
  Sud_obs.Metrics.hist_buckets (Proxy_net.frames_per_poll (Driver_host.proxy n.n_started))

let napi_budget_exhausted n =
  registry_counter ~subsystem:"proxy" ~name:"napi_budget_exhausted"
    ~driver:(Netdev.name n.n_rig.Netperf.dev_dut)

let net_quota_denied n =
  match Driver_host.quota n.n_started with Some q -> Quota.denials q | None -> 0

(* RX queue the DUT NIC steers a peer→DUT UDP flow to.  [Rss] hashes the
   flow prefix of the frame: destination and source MAC, the IPv4
   ethertype, then the sim netstack's protocol byte (1 = UDP) and port
   pair. *)
let rss_queue n ~sport ~dport =
  let b = Bytes.make Rss.flow_span '\000' in
  Bytes.blit (dut_mac n) 0 b 0 6;
  Bytes.blit (Netdev.mac n.n_rig.Netperf.dev_peer) 0 b 6 6;
  Bytes.set_uint16_be b 12 0x0800;
  Bytes.set b 14 '\001';
  Bytes.set_uint16_be b 15 sport;
  Bytes.set_uint16_be b 17 dport;
  Rss.queue_for ~queues:(rx_queues n) b

let dut_bind n ~port = Netstack.udp_bind (dut n).Kernel.net n.n_rig.Netperf.dev_dut ~port
let peer_bind n ~port = Netstack.udp_bind (peer n).Kernel.net n.n_rig.Netperf.dev_peer ~port

let sendto (k : kernel) sock ~dst ~dst_port payload =
  match Netstack.udp_sendto k.Kernel.net sock ~dst ~dst_port payload with
  | `Sent -> true
  | `Dropped -> false

let recv (k : kernel) sock = Netstack.udp_recv k.Kernel.net sock

(* ---- the blk rig: a supervised NVMe with a warm standby ---- *)

type blk = {
  b_w : Fault_inject.blk_world;
  mutable b_sv : Supervisor.t option;
  mutable b_bd : Blkdev.t option;
}

(* A booted kernel with one emulated 4-queue NVMe of [capacity] sectors
   (sparse media), safe-PCI initialised. *)
let blk_world ~capacity = { b_w = Fault_inject.make_blk_world ~capacity (); b_sv = None; b_bd = None }

let blk_kernel b = b.b_w.Fault_inject.bw_k

let sv b = match b.b_sv with Some sv -> sv | None -> failwith "blk rig: not started"
let bd b = match b.b_bd with Some bd -> bd | None -> failwith "blk rig: not started"

(* Start the driver under supervision, warm standby on, with a restart
   budget no fault phase can exhaust.  Must run in a fiber. *)
let blk_start b =
  match
    Supervisor.start_blk (blk_kernel b) b.b_w.Fault_inject.bw_sp
      ~policy:(Fault_inject.warm_policy ~max_restarts:max_int) ~bdf:b.b_w.Fault_inject.bw_bdf
      Fault_inject.honest_blk_factory
  with
  | Error e -> failwith ("blk rig: supervised start failed: " ^ e)
  | Ok sv ->
    b.b_sv <- Some sv;
    (match Supervisor.blkdev sv with
     | Some d -> b.b_bd <- Some d
     | None -> failwith "blk rig: no block device after start")

let page_size = Blkdev.page_size
let io_timeout_ns = 5_000_000_000
let lba page = page * Blkdev.page_sectors

let blk_read b ~page =
  Blkdev.read (bd b) ~timeout_ns:io_timeout_ns ~lba:(lba page) ~sectors:Blkdev.page_sectors ()

let blk_write b ~page data = Blkdev.write (bd b) ~timeout_ns:io_timeout_ns ~lba:(lba page) data ()

let blk_write_fua b ~page data =
  Blkdev.write_fua (bd b) ~timeout_ns:io_timeout_ns ~lba:(lba page) data ()

let blk_fsync b = Blkdev.fsync (bd b) ~timeout_ns:io_timeout_ns ()

(* What the media holds for a page; never-written sectors read as zeros. *)
let media_page b ~page =
  let out = Bytes.make page_size '\000' in
  for s = 0 to Blkdev.page_sectors - 1 do
    match Nvme_dev.media_sector b.b_w.Fault_inject.bw_nvme ~lba:(lba page + s) with
    | Some d -> Bytes.blit d 0 out (s * Blkdev.sector_size) Blkdev.sector_size
    | None -> ()
  done;
  out

(* (cache_hits, cache_misses, merges, flush_barriers) of the block layer. *)
let blk_layer_counts b = Blkdev.metrics (bd b)

(* (writes, fua_writes) the device received. *)
let nvme_writes b =
  let d = b.b_w.Fault_inject.bw_nvme in
  (Nvme_dev.writes d, Nvme_dev.fua_writes d)

(* Unflushed retention and in-flight requests of the live proxy. *)
let blk_tail b =
  match Supervisor.current_blk (sv b) with
  | Some s ->
    let p = Driver_host.blk_proxy s in
    (Proxy_blk.retained p, Proxy_blk.inflight p)
  | None -> (-1, -1)

let blk_chan_counts b = Option.map chan_counts (Supervisor.chan (sv b))

let blk_driver_procs b =
  List.filter_map (Option.map Process.name) [ Supervisor.proc (sv b); Supervisor.standby_proc (sv b) ]

let blk_driver_label b = Supervisor.name (sv b)
let blk_quota_denied b = Quota.denials (Supervisor.quota (sv b))
let blk_replays b = registry_counter ~subsystem:"proxy" ~name:"blk_replays" ~driver:(blk_driver_label b)
let standby_ready b = Supervisor.standby_status (sv b) = Standby.Ready
let running b = Supervisor.state (sv b) = Supervisor.Running
let warm_swaps b = Supervisor.warm_swaps (sv b)
let restarts b = (Supervisor.stats (sv b)).Supervisor.st_restarts
let last_detect_ns b = (Supervisor.stats (sv b)).Supervisor.st_last_detect_latency_ns

let on_restart b f =
  Supervisor.on_event (sv b) (function
    | Supervisor.Driver_restarted { outage_ns; _ } -> f ~outage_ns
    | Supervisor.Fault_detected _ | Supervisor.Driver_killed | Supervisor.Driver_quarantined _ ->
      ())

(* Every storage fault class but [Drop_flush]: under concurrent load a
   dropped flush is never detected and the stalled block layer grows
   without bound. *)
let blk_faults = List.filter (fun f -> f <> Fault_inject.Drop_flush) Fault_inject.all_blk_faults
let blk_fault_name = Fault_inject.blk_fault_name

(* Apply one storage fault now; false when it had no live target.  Must
   run in a fiber. *)
let blk_inject b f =
  let w = b.b_w in
  Fault_inject.blk_inject ~eng:w.Fault_inject.bw_eng ~sv:(sv b) ~nvme:w.Fault_inject.bw_nvme f

(* ---- sud-check exploration ---- *)

type exploration = { ex_runs : int; ex_points : int; ex_fifo_clean : bool; ex_clean : bool }

(* The registered mini-soak's run, with the same 12 faults over 400 ms
   drawn from every class but the two corruptions.  The soak fails a run
   in which a corruption was injected but no slot was ever counted
   malformed; in so short a plan a lethal fault often kills the driver
   before the corrupted slot is sent, and about one scenario seed in
   thirty fails that way under FIFO already. *)
let mini_soak_faults =
  List.filter
    (fun f -> f <> Fault_inject.Corrupt_batch && f <> Fault_inject.Corrupt_reply)
    Fault_inject.all_faults

let run_mini_soak ~sched ~seed =
  let plan =
    Fault_inject.random_plan ~seed ~duration_ns:400_000_000 ~n:12 ~faults:mini_soak_faults ()
  in
  let r = Fault_inject.soak ~sched ~seed ~duration_ms:400 ~plan () in
  let ss = r.Fault_inject.sr_sched in
  { Scenario.oc_failures = r.Fault_inject.sr_violations;
    oc_trace_hash = ss.Fault_inject.ss_trace_hash;
    oc_metrics_hash = ss.Fault_inject.ss_metrics_hash;
    oc_steps = ss.Fault_inject.ss_steps;
    oc_points = ss.Fault_inject.ss_points;
    oc_decisions = ss.Fault_inject.ss_decisions }

let scenario name =
  match Scenario.find name with
  | None -> failwith ("unknown scenario " ^ name)
  | Some sc when name = "mini-soak" -> { sc with Scenario.sc_run = run_mini_soak }
  | Some sc -> sc

(* [Explore.random] over a named scenario, with [before] and [after]
   called around every schedule it runs (FIFO baseline included);
   [after] gets the schedule's engine event count. *)
let explore ~scenario:name ~root_seed ~budget ~before ~after =
  let sc = scenario name in
  let timed ~sched ~seed =
    before ();
    let oc = sc.Scenario.sc_run ~sched ~seed in
    after oc.Scenario.oc_steps;
    oc
  in
  let r = Explore.random { sc with Scenario.sc_run = timed } ~root_seed ~budget in
  { ex_runs = r.Explore.ex_runs;
    ex_points = r.Explore.ex_points;
    ex_fifo_clean = r.Explore.ex_fifo_clean;
    ex_clean = r.Explore.ex_found = None }

(* ---- the program's own tracer ---- *)

let trace_enable ~capacity =
  Sud_obs.Trace.set_capacity capacity;
  Sud_obs.Trace.set_enabled true

let trace_emitted () = Sud_obs.Trace.emitted ()
let trace_dropped () = Sud_obs.Trace.dropped ()

let trace_categories () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
       let c = sp.Sud_obs.Trace.sp_cat in
       Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    (Sud_obs.Trace.spans ());
  List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])

(* ---- hot public functions, for wall-clock micro-timings ----
   Each kernel does [n] operations and returns how many it did. *)

(* [chains] self-rescheduling events whose delays collide on the same
   instants, so ready sets larger than one occur. *)
let engine_events ~picker n =
  let eng = Engine.create () in
  if picker then
    ignore (Sched.install eng (Sched.Random { seed = 7L; p_preempt = 50 }) : Sched.recorder);
  let left = ref n in
  let rec tick st () =
    if !left > 0 then begin
      decr left;
      let st = (st * 1103515245 + 12345) land 0x3fffffff in
      ignore (Engine.schedule_after eng (1_000 * (1 + (st lsr 16) mod 4)) (tick st) : Engine.handle)
    end
  in
  for c = 1 to 64 do
    ignore (Engine.schedule_after eng c (tick c) : Engine.handle)
  done;
  Engine.run eng;
  Engine.steps eng

let fiber_wakes n =
  let eng = Engine.create () in
  let a = Sync.Waitq.create () and b = Sync.Waitq.create () in
  let rounds = n / 2 in
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to rounds do
           ignore (Sync.Waitq.wait b : Fiber.wake);
           ignore (Sync.Waitq.signal a : bool)
         done)
     : Fiber.t);
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to rounds do
           ignore (Sync.Waitq.signal b : bool);
           ignore (Sync.Waitq.wait a : Fiber.wake)
         done)
     : Fiber.t);
  Engine.run eng;
  2 * rounds

let cpu_consumes n =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to n do
           Cpu.consume cpu ~label:"perfbench" 100
         done)
     : Fiber.t);
  Engine.run eng;
  n

let ring_push_pops n =
  let r = Ring.create ~slots:256 in
  for i = 1 to n do
    ignore (Ring.push_inplace r (fun s -> Bytes.set_int64_le s 0 (Int64.of_int i)) : bool);
    ignore (Ring.pop_inplace r (fun s -> Bytes.get_int64_le s 0) : int64 option)
  done;
  n

let batch_marshals n =
  let slot = Bytes.create Msg.slot_size in
  let entries = Array.init Msg.Batch.max_frames (fun i -> (i * 2048, 64)) in
  for _ = 1 to n do
    Msg.Batch.marshal_into ~kind:5 entries slot
  done;
  n

let conformance_checks n =
  let c = Conformance.create ~label:"perfbench-micro" ~epoch:0 () in
  for _ = 1 to n do
    ignore
      (Conformance.check_ingress c ~epoch:0 ~is_reply:false ~seq:0 ~kind:1
         ~pending:(fun _ -> false) ~issued_hi:0
       : Conformance.verdict)
  done;
  n

let iotlb_hits n =
  let io = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
  let source = Bus.make_bdf ~bus:0 ~dev:3 ~fn:0 in
  let d = Iommu.attach io ~source in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  for _ = 1 to n do
    match Iommu.translate io ~source ~addr:0x10040 ~dir:Bus.Dma_write with
    | `Phys _ -> ()
    | `Msi | `Fault _ -> failwith "iotlb micro: translation failed"
  done;
  n

let phys_mem_rws n =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  let buf = Bytes.make 1448 'p' in
  for _ = 1 to n do
    Phys_mem.blit_in m ~addr:8192 ~src:buf ~src_off:0 ~len:1448;
    Phys_mem.blit_out m ~addr:8192 ~dst:buf ~dst_off:0 ~len:1448
  done;
  n

let copy_and_checksums n =
  let src = Bytes.init 1448 (fun i -> Char.chr (i land 0xff)) and dst = Bytes.create 1448 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc lxor Skbuff.copy_and_checksum ~src ~src_off:0 ~dst ~dst_off:0 ~len:1448
  done;
  ignore (Sys.opaque_identity !acc : int);
  n

let snapshot_hashes n =
  for _ = 1 to n do
    ignore (Sud_obs.Metrics.snapshot_hash () : int64)
  done;
  n
