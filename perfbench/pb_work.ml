(* The three workloads.  Each builds its inputs from the seed, drives the
   system through [Pb_sut], checks the outputs, and returns its metrics in
   three groups:

   - [exact]: simulated-time metrics and exact counts — identical for one
     seed, traced or not;
   - [alloc]: allocation counts — nearly repeatable, reported as medians;
   - [wall]: wall-clock metrics — noisy.

   Per-layer metrics a workload does not exercise are left out; the
   runner reports them as 0. *)

open Pb_util
module S = Pb_sut

type result = {
  digest : string;  (* fingerprint of the generated inputs *)
  attempted : int;
  failed : int;
  failures : string list;  (* the first few failed checks *)
  exact : (string * float) list;
  alloc : (string * float) list;
  wall : (string * float) list;
  fingerprint : string;  (* exact run fingerprint: trace hashes and counts *)
  t_first_op : float;
}

let us ns = float_of_int ns /. 1e3
let per a ops = if ops = 0 then 0.0 else float_of_int a /. float_of_int ops
let fold_digest acc v = Int64.to_string (S.derive ~root:(Int64.of_string acc) (string_of_int v))

(* ---- counters at a window edge ---- *)

type edge = {
  e_sim : int;
  e_wall : float;
  e_busy : int;
  e_labels : (string * int) list;
  e_steps : int;
  e_minor : float;
  e_iotlb : int * int;
  e_irqs : int;
  e_spans : int;
}

let edge k =
  { e_sim = S.now k;
    e_wall = wall ();
    e_busy = S.cpu_busy k;
    e_labels = S.cpu_labels k;
    e_steps = S.steps k;
    e_minor = Gc.minor_words ();
    e_iotlb = S.iotlb k;
    e_irqs = S.irqs k;
    e_spans = S.trace_emitted () }

(* The per-layer CPU ledger: every DUT CPU label maps to exactly one
   layer, and the layers sum exactly to the busy time of the window. *)
let ledger ~driver_procs ~ops e0 e1 fail =
  let hw = ref 0 and irq = ref 0 and kern = ref 0 and sud = ref 0 and drv = ref 0 in
  let drivers = List.map (fun p -> "proc:" ^ p) driver_procs in
  List.iter
    (fun (label, ns1) ->
       let d = ns1 - Option.value ~default:0 (List.assoc_opt label e0.e_labels) in
       let cell =
         if label = "hw:iommu" then hw
         else if String.starts_with ~prefix:"kernel:irq:" label then irq
         else if label = "proc:kernel" then kern
         else if label = "kernel:sud" then sud
         else if List.mem label drivers then drv
         else begin
           fail ("CPU label with no layer: " ^ label);
           ref 0
         end
       in
       cell := !cell + d)
    e1.e_labels;
  let busy = e1.e_busy - e0.e_busy in
  if !hw + !irq + !kern + !sud + !drv <> busy then
    fail
      (Printf.sprintf "CPU ledger sums to %d ns, busy time is %d ns"
         (!hw + !irq + !kern + !sud + !drv) busy);
  [ ("cpu_ns_per_op", per busy ops);
    ("hw.iommu_cpu_ns_per_op", per !hw ops);
    ("kernel.irq_cpu_ns_per_op", per !irq ops);
    ("kernel.cpu_ns_per_op", per !kern ops);
    ("core.sud_cpu_ns_per_op", per !sud ops);
    ("core.driver_cpu_ns_per_op", per !drv ops) ]

(* Run the measured window from now in [window_slices] equal slices of
   simulated time.  Its wall-clock cost is the fastest slice's: the load
   is steady across the window, and outside interference only ever slows
   a slice down.  [ops] reads the workload's completed-op counter. *)
let window_slices = 8

let run_window k ~window_ns ~ops =
  let e0 = edge k in
  let best_op = ref infinity and best_event = ref infinity in
  for i = 1 to window_slices do
    let w0 = wall () and o0 = ops () and s0 = S.steps k in
    S.run_until k (e0.e_sim + (i * window_ns / window_slices));
    let dw = (wall () -. w0) *. 1e9 in
    let dops = ops () - o0 and devents = S.steps k - s0 in
    if dops > 0 then best_op := Float.min !best_op (dw /. float_of_int dops);
    if devents > 0 then best_event := Float.min !best_event (dw /. float_of_int devents)
  done;
  (e0, edge k, [ ("sim.wall_ns_per_op", !best_op); ("sim.wall_ns_per_event", !best_event) ])

(* Metrics every datapath workload derives from its window edges. *)
let window_metrics k ~ops ~window_ns e0 e1 =
  let events = e1.e_steps - e0.e_steps in
  let hits = fst e1.e_iotlb - fst e0.e_iotlb and misses = snd e1.e_iotlb - snd e0.e_iotlb in
  let exact =
    [ ("ops_per_s", float_of_int ops /. (float_of_int window_ns /. 1e9));
      ("sim.events_per_op", per events ops);
      ( "sim.dut_cpu_util",
        float_of_int (e1.e_busy - e0.e_busy) /. float_of_int (S.cpu_cores k * window_ns) );
      ("hw.iotlb_hit_ratio", ratio hits (hits + misses));
      ("hw.iotlb_misses_per_op", per misses ops);
      ("kernel.irqs_per_op", per (e1.e_irqs - e0.e_irqs) ops);
      ("obs.spans_per_op", per (e1.e_spans - e0.e_spans) ops) ]
  in
  let alloc = [ ("sim.minor_words_per_event", (e1.e_minor -. e0.e_minor) /. float_of_int (max 1 events)) ] in
  (exact, alloc)

let latency_metrics prefix buf =
  let s = Ibuf.to_sorted buf in
  [ (prefix ^ "_p50_us", us (pct s 0.50));
    (prefix ^ "_p99_us", us (pct s 0.99)) ]

let chan_checks fail what (c : S.chan_counts) =
  if c.S.malformed <> 0 then fail (Printf.sprintf "%s: %d malformed uchan slots" what c.S.malformed);
  if c.S.dropped <> 0 then fail (Printf.sprintf "%s: %d dropped uchan messages" what c.S.dropped);
  if c.S.violations <> 0 then
    fail (Printf.sprintf "%s: %d uchan protocol violations" what c.S.violations)

let chan_per_op (c0 : S.chan_counts) (c1 : S.chan_counts) ops =
  [ ("uchan.notifications_per_op", per (c1.S.notifications - c0.S.notifications) ops);
    ("uchan.upcalls_per_op", per (c1.S.upcalls - c0.S.upcalls) ops);
    ("uchan.downcalls_per_op", per (c1.S.downcalls - c0.S.downcalls) ops);
    ("uchan.malformed", float_of_int c1.S.malformed);
    ("uchan.dropped", float_of_int c1.S.dropped);
    ("uchan.proto_violation", float_of_int c1.S.violations) ]

type fails = { mutable count : int; mutable first : string list }

let failures () =
  let f = { count = 0; first = [] } in
  ( (fun msg ->
      f.count <- f.count + 1;
      if f.count <= 20 then f.first <- msg :: f.first),
    f )

let heap () =
  [ ( "peak_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 ) ]

(* ---- net-stream: 8 RSS-balanced 64-byte UDP flows into a CPU-bound DUT ----

   Each sender keeps up to [stream_credit] datagrams of its flow in
   flight, counted from the sequence numbers its receiving socket has
   seen.  An unbounded flood makes the e1000 driver recycle RX buffers
   the proxy has not copied yet, which delivers datagrams out of order;
   the window keeps each RX queue's backlog under the RX ring size while
   leaving the DUT the bottleneck. *)

let stream_flows = 8
let stream_credit = 64
let stream_warmup_ns = 2_000_000
let stream_window_ns = 40_000_000
let msg_size = 64

(* Payload: 8 marker bytes, flow index, u32 sequence, i64 send time,
   then filler derived from the marker. *)
let stream_template ~marker ~flow =
  let p = Bytes.create msg_size in
  Bytes.blit marker 0 p 0 8;
  Bytes.set_uint8 p 8 flow;
  for i = 24 to msg_size - 1 do
    Bytes.set_uint8 p i (Bytes.get_uint8 marker (i land 7) lxor i)
  done;
  p

let marker_ok ~template data =
  let same i = Bytes.unsafe_get data i = Bytes.unsafe_get template i in
  let rec from i stop = i >= stop || (same i && from (i + 1) stop) in
  Bytes.length data = msg_size && from 0 9 && from 24 msg_size

let net_stream ~seed =
  let fail, fails = failures () in
  let rng = S.rng seed in
  let n = S.net_rig ~rate_bps:10_000_000_000 ~dut_cores:4 ~peer_cores:16 ~queues:4 ~peer_queues:8 () in
  let dut = S.dut n and peer = S.peer n in
  let queues = S.rx_queues n in
  (* Two flows per RX queue, ports drawn from the seed. *)
  let used = Hashtbl.create 16 in
  let flows =
    Array.init stream_flows (fun i ->
        let q = i mod queues in
        let rec pick () =
          let sport = 20_000 + S.rand rng 40_000 and dport = 1_024 + S.rand rng 18_000 in
          if Hashtbl.mem used sport || Hashtbl.mem used dport || S.rss_queue n ~sport ~dport <> q
          then pick ()
          else begin
            Hashtbl.replace used sport ();
            Hashtbl.replace used dport ();
            (sport, dport)
          end
        in
        let sport, dport = pick () in
        let marker = Bytes.init 8 (fun _ -> Char.chr (S.rand rng 256)) in
        (sport, dport, stream_template ~marker ~flow:i, S.rand rng 20_000))
  in
  let digest =
    Array.fold_left
      (fun acc (sp, dp, t, off) ->
         fold_digest (fold_digest (fold_digest acc sp) dp) (off + Hashtbl.hash (Bytes.to_string t)))
      "0" flows
  in
  let sent = Array.make stream_flows 0 and seen = Array.make stream_flows 0 in
  let blocked = Array.make stream_flows false in
  let credit = Array.init stream_flows (fun _ -> S.waitq ()) in
  let delivered = ref 0 and measuring = ref false in
  let send_calls = ref 0 and send_ns = ref 0 in
  let lat = Ibuf.create () in
  let dut_mac = S.dut_mac n in
  Array.iteri
    (fun i (sport, dport, template, offset) ->
       S.spawn dut (Printf.sprintf "pb-sink-%d" i) (fun () ->
           let sock = S.dut_bind n ~port:dport in
           let rec loop () =
             let sp = Spans.start "dut.udp_recv" ~sim:(S.now dut) in
             match S.recv dut sock with
             | None -> ()
             | Some (data, (_, src_port)) ->
               Spans.finish sp ~sim:(S.now dut);
               incr delivered;
               if src_port <> sport || not (marker_ok ~template data) then
                 fail (Printf.sprintf "flow %d: corrupt or misdelivered datagram" i)
               else begin
                 let seq = Int32.to_int (Bytes.get_int32_be data 9) in
                 if seq <= seen.(i) then
                   fail (Printf.sprintf "flow %d: sequence %d after %d" i seq seen.(i))
                 else seen.(i) <- seq;
                 if !measuring then Ibuf.push lat (S.now dut - Int64.to_int (Bytes.get_int64_be data 16));
                 if blocked.(i) && sent.(i) - seen.(i) <= stream_credit / 2 then begin
                   blocked.(i) <- false;
                   S.signal credit.(i)
                 end
               end;
               loop ()
           in
           loop ());
       S.spawn peer (Printf.sprintf "pb-source-%d" i) (fun () ->
           let sock = S.peer_bind n ~port:sport in
           let payload = Bytes.copy template in
           S.sleep peer offset;
           while true do
             if sent.(i) - seen.(i) >= stream_credit then begin
               blocked.(i) <- true;
               S.wait credit.(i)
             end
             else begin
               sent.(i) <- sent.(i) + 1;
               Bytes.set_int32_be payload 9 (Int32.of_int sent.(i));
               let t = S.now peer in
               Bytes.set_int64_be payload 16 (Int64.of_int t);
               let sp = Spans.start "peer.udp_sendto" ~sim:t in
               if not (S.sendto peer sock ~dst:dut_mac ~dst_port:dport payload) then
                 fail (Printf.sprintf "flow %d: sender's transmit queue dropped" i);
               let t' = S.now peer in
               Spans.finish sp ~sim:t';
               if !measuring then begin
                 incr send_calls;
                 send_ns := !send_ns + (t' - t)
               end
             end
           done))
    flows;
  let t0 = S.now dut in
  S.run_until dut (t0 + stream_warmup_ns);
  let p0 = edge peer in
  let c0 = S.net_chan_counts n in
  let del0 = !delivered in
  let drops0 = S.backlog_drops dut in
  let rxq0 = List.init queues (S.rxq_frames n) in
  let pool_h0, pool_f0 = S.rx_pool n in
  let fpp0 = S.frames_per_poll n in
  let napi0 = S.napi_budget_exhausted n in
  measuring := true;
  let e0, e1, wall = run_window dut ~window_ns:stream_window_ns ~ops:(fun () -> !delivered) in
  measuring := false;
  let p1 = edge peer in
  let c1 = S.net_chan_counts n in
  let ops = !delivered - del0 in
  let rxq = List.map2 (fun a b -> b - a) rxq0 (List.init queues (S.rxq_frames n)) in
  let pool_h1, pool_f1 = S.rx_pool n in
  let fpp = Array.map2 (fun a b -> b - a) fpp0 (S.frames_per_poll n) in
  let fpp_p50 =
    let total = Array.fold_left ( + ) 0 fpp in
    let rec find i acc =
      if i >= Array.length fpp - 1 || 2 * (acc + fpp.(i)) >= total then i else find (i + 1) (acc + fpp.(i))
    in
    if total = 0 then 0.0 else float_of_int (1 lsl find 0 0)
  in
  chan_checks fail "DUT driver channel" c1;
  let denied = S.net_quota_denied n in
  if denied <> 0 then fail "quota denials on the DUT driver";
  if ops = 0 then fail "no datagram delivered in the window";
  (* What the senders could offer if never held back: one datagram per
     mean udp_sendto duration, per flow. *)
  let capacity =
    if !send_ns = 0 then 0.0
    else float_of_int (stream_flows * stream_window_ns) *. float_of_int !send_calls /. float_of_int !send_ns
  in
  let exact, alloc = window_metrics dut ~ops ~window_ns:stream_window_ns e0 e1 in
  let ledger = ledger ~driver_procs:(S.net_driver_procs n) ~ops e0 e1 fail in
  let exact =
    exact @ ledger @ latency_metrics "lat" lat @ chan_per_op c0 c1 ops
    @ [ ("core.quota_denied", float_of_int denied);
        ("netbench.sender_headroom", capacity /. float_of_int (max 1 ops));
        ( "netbench.peer_cpu_util",
          float_of_int (p1.e_busy - p0.e_busy) /. float_of_int (S.cpu_cores peer * stream_window_ns) );
        ("bench.lat_samples", float_of_int (Ibuf.length lat));
        ("kernel.backlog_drops_per_op", per (S.backlog_drops dut - drops0) ops);
        ("hw.rxq_frames_min_over_max", ratio (List.fold_left min max_int rxq) (List.fold_left max 0 rxq));
        ("core.rx_pool_hit_ratio", ratio (pool_h1 - pool_h0) (pool_h1 - pool_h0 + pool_f1 - pool_f0));
        ("core.frames_per_poll_p50", fpp_p50);
        ("core.napi_budget_exhausted_per_op", per (S.napi_budget_exhausted n - napi0) ops) ]
  in
  { digest;
    attempted = ops;
    failed = fails.count;
    failures = List.rev fails.first;
    exact;
    alloc = alloc @ heap ();
    wall;
    fingerprint = Int64.to_string (S.trace_hash dut);
    t_first_op = e0.e_wall }

(* ---- net-rr: 8 closed-loop 64-byte UDP echo clients on the Figure 8 rig ---- *)

let rr_clients = 8
let rr_warmup_ns = 2_000_000
let rr_window_ns = 400_000_000
let rr_drain_ns = 5_000_000
let rr_think_ns = 100_000

let net_rr ~seed =
  let fail, fails = failures () in
  let rng = S.rng seed in
  let n = S.net_rig ~dut_cores:2 ~peer_cores:4 ~queues:1 ~peer_queues:1 () in
  let dut = S.dut n and peer = S.peer n in
  let server_port = 1_024 + S.rand rng 10_000 in
  let clients =
    Array.init rr_clients (fun i ->
        let sport = 20_000 + (i * 4_000) + S.rand rng 4_000 in
        let req = Bytes.init msg_size (fun _ -> Char.chr (S.rand rng 256)) in
        Bytes.set_uint8 req 0 i;
        (sport, req, S.rng (S.derive ~root:seed (Printf.sprintf "client:%d" i))))
  in
  let digest =
    Array.fold_left
      (fun acc (sp, req, _) -> fold_digest (fold_digest acc sp) (Hashtbl.hash (Bytes.to_string req)))
      (string_of_int server_port) clients
  in
  let dut_mac = S.dut_mac n in
  let stop = ref false and measuring = ref false in
  let completed = ref 0 and waiting = ref 0 in
  let lat = Ibuf.create () in
  S.spawn dut "pb-echo" (fun () ->
      let sock = S.dut_bind n ~port:server_port in
      let rec serve () =
        match S.recv dut sock with
        | None -> ()
        | Some (data, (src, sport)) ->
          if not (S.sendto dut sock ~dst:src ~dst_port:sport data) then
            fail "echo server's transmit queue dropped";
          serve ()
      in
      serve ());
  Array.iteri
    (fun i (sport, req, think) ->
       S.spawn peer (Printf.sprintf "pb-client-%d" i) (fun () ->
           let sock = S.peer_bind n ~port:sport in
           let seq = ref 0 in
           while not !stop do
             (* A random think time keeps the clients from locking into
                one phase against the interrupt moderation timer. *)
             S.sleep peer (1 + S.rand think rr_think_ns);
             incr seq;
             Bytes.set_int32_be req 1 (Int32.of_int !seq);
             let t_send = S.now peer in
             incr waiting;
             let sp = Spans.start "peer.udp_sendto" ~sim:t_send in
             let sent = S.sendto peer sock ~dst:dut_mac ~dst_port:server_port req in
             Spans.finish sp ~sim:(S.now peer);
             if not sent then fail (Printf.sprintf "client %d: request dropped at send" i)
             else begin
               let sp = Spans.start "peer.udp_recv" ~sim:(S.now peer) in
               match S.recv peer sock with
               | None -> fail (Printf.sprintf "client %d: receive interrupted" i)
               | Some (echo, _) ->
                 Spans.finish sp ~sim:(S.now peer);
                 decr waiting;
                 if not (Bytes.equal echo req) then
                   fail (Printf.sprintf "client %d: echo differs from request %d" i !seq);
                 if !measuring then begin
                   incr completed;
                   Ibuf.push lat (S.now peer - t_send)
                 end
             end
           done))
    clients;
  let t0 = S.now dut in
  S.run_until dut (t0 + rr_warmup_ns);
  let c0 = S.net_chan_counts n in
  measuring := true;
  let e0, e1, wall = run_window dut ~window_ns:rr_window_ns ~ops:(fun () -> !completed) in
  measuring := false;
  let c1 = S.net_chan_counts n in
  stop := true;
  S.run_until dut (e1.e_sim + rr_drain_ns);
  let ops = !completed in
  let stuck = !waiting in
  if stuck > 0 then fail (Printf.sprintf "%d requests still without an echo after the window" stuck);
  chan_checks fail "DUT driver channel" c1;
  let denied = S.net_quota_denied n in
  if denied <> 0 then fail "quota denials on the DUT driver";
  if ops = 0 then fail "no transaction completed in the window";
  let exact, alloc = window_metrics dut ~ops ~window_ns:rr_window_ns e0 e1 in
  let ledger = ledger ~driver_procs:(S.net_driver_procs n) ~ops e0 e1 fail in
  let exact =
    exact @ ledger @ latency_metrics "lat" lat @ chan_per_op c0 c1 ops
    @ [ ("bench.lat_samples", float_of_int (Ibuf.length lat));
        ("core.quota_denied", float_of_int denied) ]
  in
  { digest;
    attempted = ops + stuck;
    failed = fails.count;
    failures = List.rev fails.first;
    exact;
    alloc = alloc @ heap ();
    wall;
    fingerprint = Int64.to_string (S.trace_hash dut);
    t_first_op = e0.e_wall }

(* ---- blk: 16 closed-loop workers on a supervised NVMe, in three phases ----

   - steady: cold 4 KiB reads of never-read pages and FUA writes over a
     small per-worker hot set, at full load — the end-to-end window;
   - flush: the workers dirty their buffered pages while one flusher
     fsyncs back to back — the writeback path;
   - faults: the workers keep writing FUA at a low rate while storage
     faults rotate through the classes, each injected once the warm
     standby is Ready again.

   The load avoids three defects of the system that would fail its
   checks: every page has one writer and only one fsync runs at a time
   (two concurrent fsyncs of one page can complete out of order in the
   block layer and leave media older than the last acknowledged write);
   the faults phase issues no fsync (requests parked behind a flush
   barrier can be drained twice at once by two ring workers, which sends
   a request twice and crashes the proxy); and it stops cold reads,
   because every page read stays in the unbounded page cache. *)

let blk_workers = 16
let blk_hot_pages = 4  (* FUA hot set, per worker *)
let blk_buf_pages = 8  (* buffered-write pages, per worker *)
let blk_region = 1_024  (* cold-read pages, per worker: never read twice *)
let blk_read_pct = 60
let blk_warmup_ns = 2_000_000
let blk_window_ns = 40_000_000
let blk_flush_ns = 20_000_000
let blk_flush_think_ns = 20_000  (* between buffered writes in the flush phase *)
let blk_fault_think_ns = 500_000  (* between FUA writes in the faults phase *)
let blk_faults = 102

(* Page layout: per worker, hot pages then buffered pages, all workers
   first; cold-read regions after. *)
let hot_page w j = (w * (blk_hot_pages + blk_buf_pages)) + j
let buf_page w j = (w * (blk_hot_pages + blk_buf_pages)) + blk_hot_pages + j
let region_page w j = (blk_workers * (blk_hot_pages + blk_buf_pages)) + (w * blk_region) + j
let blk_pages = region_page blk_workers 0

let page_data ~seed ~page ~gen =
  let fill = Char.chr ((Int64.to_int seed + (page * 131) + (gen * 31)) land 0xff) in
  let d = Bytes.make S.page_size fill in
  Bytes.set_int64_le d 0 seed;
  Bytes.set_int32_le d 8 (Int32.of_int page);
  Bytes.set_int32_le d 12 (Int32.of_int gen);
  d

type blk_phase = Steady | Flushing | Faulting | Stopping

let blk ~seed =
  let fail, fails = failures () in
  let b = S.blk_world ~capacity:(S.lba blk_pages) in
  let k = S.blk_kernel b in
  let started = ref false in
  S.spawn k "pb-blk-setup" (fun () ->
      S.blk_start b;
      started := true);
  if not (S.run_while_not k ~budget_ns:1_000_000_000 (fun () -> !started && S.standby_ready b)) then
    failwith "blk rig: driver or standby never became ready";
  let fault_rng = S.rng (S.derive ~root:seed "faults") in
  let class_offset = S.rand fault_rng (List.length S.blk_faults) in
  let digest = ref (string_of_int class_offset) in
  let acked = Array.make blk_pages 0 in  (* generation of the last acked write *)
  let phase = ref Steady and running = ref 0 in
  let in_window = ref false in
  let ops = ref 0 and attempted = ref 0 in
  let lat = Ibuf.create () and fsync_lat = Ibuf.create () in
  let io_start = Ibuf.create () and io_end = Ibuf.create () and io_span = Ibuf.create () in
  let timed name f =
    let t0 = S.now k in
    incr attempted;
    let sp = Spans.start name ~sim:t0 in
    let r = f () in
    let t1 = S.now k in
    Spans.finish sp ~sim:t1;
    (match r with
     | Ok _ -> ()
     | Error e -> fail (Printf.sprintf "%s failed: %s" name e));
    (t0, t1, sp)
  in
  let io name f =
    let t0, t1, sp = timed name f in
    if !in_window then begin
      incr ops;
      Ibuf.push lat (t1 - t0)
    end;
    if !phase = Faulting then begin
      Ibuf.push io_start t0;
      Ibuf.push io_end t1;
      Ibuf.push io_span sp
    end
  in
  let write_fua ~page ~gen =
    io "blk.write_fua" (fun () ->
        match S.blk_write_fua b ~page (page_data ~seed ~page ~gen) with
        | Ok () ->
          acked.(page) <- gen;
          Ok ()
        | Error e -> Error e)
  in
  for w = 0 to blk_workers - 1 do
    let rng = S.rng (S.derive ~root:seed (Printf.sprintf "worker:%d" w)) in
    let think = 100 + S.rand rng 200 in
    digest := fold_digest !digest think;
    incr running;
    S.spawn k (Printf.sprintf "pb-blk-%d" w) (fun () ->
        let next_read = ref 0 and gen = ref 0 in
        while !phase <> Stopping do
          incr gen;
          match !phase with
          | Steady ->
            if S.rand rng 100 < blk_read_pct then begin
              let page = region_page w !next_read in
              incr next_read;
              io "blk.read" (fun () ->
                  match S.blk_read b ~page with
                  | Ok data ->
                    if not (Bytes.equal data (S.media_page b ~page)) then
                      fail (Printf.sprintf "cold read of page %d differs from media" page);
                    Ok ()
                  | Error e -> Error e)
            end
            else write_fua ~page:(hot_page w (S.rand rng blk_hot_pages)) ~gen:!gen;
            S.sleep k think
          | Flushing ->
            let page = buf_page w (S.rand rng blk_buf_pages) in
            (match S.blk_write b ~page (page_data ~seed ~page ~gen:!gen) with
             | Ok () -> acked.(page) <- !gen
             | Error e -> fail ("buffered write failed: " ^ e));
            S.sleep k (blk_flush_think_ns / 2 + S.rand rng blk_flush_think_ns)
          | Faulting ->
            write_fua ~page:(hot_page w (S.rand rng blk_hot_pages)) ~gen:!gen;
            S.sleep k (blk_fault_think_ns / 2 + S.rand rng blk_fault_think_ns)
          | Stopping -> ()
        done;
        decr running)
  done;
  let flush_rng = S.rng (S.derive ~root:seed "flusher") in
  incr running;
  S.spawn k "pb-blk-flusher" (fun () ->
      while !phase <> Stopping do
        if !phase <> Flushing then S.sleep k 100_000
        else begin
          let t0, t1, _ = timed "blk.fsync" (fun () -> S.blk_fsync b) in
          Ibuf.push fsync_lat (t1 - t0);
          S.sleep k (10_000 + S.rand flush_rng 20_000)
        end
      done;
      decr running);
  (* Steady phase: the end-to-end window. *)
  S.run_until k (S.now k + blk_warmup_ns);
  let c0 = S.blk_chan_counts b in
  let procs0 = S.blk_driver_procs b in
  in_window := true;
  let e0, e1, wall = run_window k ~window_ns:blk_window_ns ~ops:(fun () -> !ops) in
  in_window := false;
  let c1 = S.blk_chan_counts b in
  let driver_procs = List.sort_uniq compare (procs0 @ S.blk_driver_procs b) in
  let ops = !ops in
  (* Flush phase: the writeback path. *)
  phase := Flushing;
  let hits0, misses0, merges0, barriers0 = S.blk_layer_counts b in
  let writes0, fua0 = S.nvme_writes b in
  S.run_until k (S.now k + blk_flush_ns);
  let hits1, misses1, merges1, barriers1 = S.blk_layer_counts b in
  let writes1, fua1 = S.nvme_writes b in
  let fsyncs = Ibuf.length fsync_lat in
  (* Faults phase. *)
  let restarted = ref 0 and outage = ref 0 and replays = ref 0 in
  S.on_restart b (fun ~outage_ns ->
      incr restarted;
      outage := outage_ns;
      replays := !replays + S.blk_replays b);
  let applied = ref 0 and skipped = ref 0 in
  let faults = ref [] in  (* (t_inject, t_restarted, detect_ns, outage_ns, rewarm_ns, span) *)
  let done_faults = ref false in
  let restarts0 = S.restarts b and swaps0 = S.warm_swaps b in
  let classes = Array.of_list S.blk_faults in
  phase := Faulting;
  S.spawn k "pb-blk-faults" (fun () ->
      let wait_for budget_ns cond =
        let deadline = S.now k + budget_ns in
        while (not (cond ())) && S.now k < deadline do
          S.sleep k 10_000
        done;
        cond ()
      in
      let last_restart = ref (S.now k) in
      for i = 0 to blk_faults - 1 do
        if not (wait_for 2_000_000_000 (fun () -> S.standby_ready b && S.running b)) then
          fail "standby never became Ready again";
        let rewarm = S.now k - !last_restart in
        S.sleep k (S.rand fault_rng 1_000_000);
        let cls = classes.((i + class_offset) mod Array.length classes) in
        let before = !restarted in
        let t_inj = S.now k in
        let sp = Spans.start ("fault." ^ S.blk_fault_name cls) ~sim:t_inj in
        if not (S.blk_inject b cls) then incr skipped
        else begin
          incr applied;
          if not (wait_for 2_000_000_000 (fun () -> !restarted > before)) then
            fail ("no recovery after " ^ S.blk_fault_name cls)
          else begin
            let t_rst = S.now k in
            Spans.finish sp ~sim:t_rst;
            last_restart := t_rst;
            faults := (t_inj, t_rst, S.last_detect_ns b, !outage, rewarm, sp) :: !faults
          end
        end
      done;
      done_faults := true);
  if not (S.run_while_not k ~budget_ns:60_000_000_000 (fun () -> !done_faults)) then
    fail "faults phase did not finish";
  phase := Stopping;
  if not (S.run_while_not k ~budget_ns:10_000_000_000 (fun () -> !running = 0)) then
    fail "workers did not stop";
  (* The durability oracle: after a final fsync, media holds the last
     acknowledged write of every page, and nothing is retained or in
     flight. *)
  let final = ref false in
  S.spawn k "pb-blk-final" (fun () ->
      ignore (timed "blk.fsync" (fun () -> S.blk_fsync b) : int * int * int);
      final := true);
  if not (S.run_while_not k ~budget_ns:10_000_000_000 (fun () -> !final)) then
    fail "final fsync did not finish";
  Array.iteri
    (fun page g ->
       if g > 0 && not (Bytes.equal (S.media_page b ~page) (page_data ~seed ~page ~gen:g)) then
         fail (Printf.sprintf "page %d: media differs from the last acknowledged write" page))
    acked;
  let retained, inflight = S.blk_tail b in
  if retained <> 0 || inflight <> 0 then
    fail (Printf.sprintf "after the final fsync: %d retained, %d in flight" retained inflight);
  (match c1 with Some c -> chan_checks fail "driver channel (steady)" c | None -> fail "no driver channel");
  (match S.blk_chan_counts b with Some c -> chan_checks fail "driver channel (final)" c | None -> ());
  let denied = S.blk_quota_denied b in
  if denied <> 0 then fail "quota denials on the driver";
  if !skipped <> 0 then fail (Printf.sprintf "%d faults found no live target" !skipped);
  if ops = 0 then fail "no IO completed in the window";
  if fsyncs = 0 then fail "no fsync completed in the flush phase";
  (* Stall per fault: the longest FUA write overlapping the interval from
     injection to restart; that IO's span becomes a child of the fault's. *)
  let faults = List.rev !faults in
  let stalls =
    Array.of_list
      (List.map
         (fun (ti, tr, _, _, _, fsp) ->
            let worst = ref 0 in
            for j = 0 to Ibuf.length io_start - 1 do
              let s = Ibuf.get io_start j and e = Ibuf.get io_end j in
              if s <= tr && e >= ti then begin
                Spans.set_parent (Ibuf.get io_span j) fsp;
                worst := max !worst (e - s)
              end
            done;
            !worst)
         faults)
  in
  let sorted a = Array.sort compare a; a in
  let column f = sorted (Array.of_list (List.map f faults)) in
  let detect = column (fun (_, _, d, _, _, _) -> d) and outages = column (fun (_, _, _, o, _, _) -> o) in
  let rewarm = column (fun (_, _, _, _, r, _) -> r) in
  let stalls = sorted stalls in
  let nf = List.length faults in
  let maxv a = if Array.length a = 0 then 0 else a.(Array.length a - 1) in
  let exact, alloc = window_metrics k ~ops ~window_ns:blk_window_ns e0 e1 in
  let ledger = ledger ~driver_procs ~ops e0 e1 fail in
  let chan = match (c0, c1) with Some c0, Some c1 -> chan_per_op c0 c1 ops | _ -> [] in
  let exact =
    exact @ ledger @ latency_metrics "lat" lat @ chan
    @ [ ("bench.lat_samples", float_of_int (Ibuf.length lat));
        ("kernel.fsync_p99_us", us (pct (Ibuf.to_sorted fsync_lat) 0.99));
        ("bench.fsync_samples", float_of_int fsyncs);
        ("kernel.blk_writes_issued_per_fsync", per (writes1 - writes0 - (fua1 - fua0)) fsyncs);
        ("kernel.blk_merges_per_fsync", per (merges1 - merges0) fsyncs);
        ("kernel.blk_flush_barriers_per_fsync", per (barriers1 - barriers0) fsyncs);
        ("kernel.blk_cache_hit_ratio", ratio (hits1 - hits0) (hits1 - hits0 + misses1 - misses0));
        ("core.stall_p50_us", us (pct stalls 0.50));
        ("core.stall_p90_us", us (pct stalls 0.90));
        ("bench.stall_samples", float_of_int nf);
        ("core.detect_us_p50", us (pct detect 0.5));
        ("core.detect_us_max", us (maxv detect));
        ("core.outage_us_p50", us (pct outages 0.5));
        ("core.outage_us_max", us (maxv outages));
        ("core.warm_swap_ratio", ratio (S.warm_swaps b - swaps0) (S.restarts b - restarts0));
        ("core.blk_replays_per_fault", per !replays nf);
        ("core.standby_rewarm_us", us (pct rewarm 0.5));
        ("core.quota_denied", float_of_int denied);
        ("attacks.faults_applied", float_of_int !applied);
        ("attacks.faults_skipped", float_of_int !skipped) ]
  in
  { digest = !digest;
    attempted = !attempted;
    failed = fails.count;
    failures = List.rev fails.first;
    exact;
    alloc = alloc @ heap ();
    wall;
    fingerprint =
      Printf.sprintf "%Ld/%d/%d/%d" (S.trace_hash k) (S.steps k) !attempted (Ibuf.length io_start);
    t_first_op = e0.e_wall }
