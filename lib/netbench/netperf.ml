type mode = Kernel_driver | Sud_driver

let mode_name = function Kernel_driver -> "Kernel driver" | Sud_driver -> "Untrusted driver"

type result = {
  throughput : float;
  units : string;
  cpu_pct : float;
  samples : int;
}

type rig = {
  eng : Engine.t;
  dut : Kernel.t;
  peer : Kernel.t;
  dev_dut : Netdev.t;
  dev_peer : Netdev.t;
  nic_dut : E1000_dev.t;
  started : Driver_host.started option;
}

let msg_size = 64
let warmup_ns = 20_000_000
let interval_ns = 50_000_000
let max_samples = 40

let mac_dut = Bytes.of_string "\x52\x54\x00\x00\x00\x01"
let mac_peer = Bytes.of_string "\x52\x54\x00\x00\x00\x02"

let fail_on_error what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let make_rig ?iommu_mode ?(queues = 1) ?(peer_queues = 1) ?(dut_cores = 2) ?(peer_cores = 4)
    ?rate_bps mode =
  let eng = Engine.create () in
  let dut = Kernel.boot ?iommu_mode ~cores:dut_cores eng in
  let peer = Kernel.boot ~cores:peer_cores eng in
  let medium = Net_medium.create eng ?rate_bps () in
  let nic_dut = E1000_dev.create eng ~mac:mac_dut ~medium ~queues () in
  let nic_peer = E1000_dev.create eng ~mac:mac_peer ~medium ~queues:peer_queues () in
  let bdf_dut = Kernel.attach_pci dut (E1000_dev.device nic_dut) in
  let bdf_peer = Kernel.attach_pci peer (E1000_dev.device nic_peer) in
  let rig = ref None in
  ignore
    (Process.spawn_fiber (Process.kernel_process dut.Kernel.procs) ~name:"rig-setup" (fun () ->
         let dev_peer =
           fail_on_error "peer attach" (Native_net.attach ~name:"peer0" peer E1000.driver bdf_peer)
         in
         fail_on_error "peer up" (Netstack.ifconfig_up peer.Kernel.net dev_peer);
         let dev_dut, started =
           match mode with
           | Kernel_driver ->
             let dev =
               fail_on_error "dut attach"
                 (Native_net.attach ~name:"eth0" dut E1000.driver bdf_dut)
             in
             (dev, None)
           | Sud_driver ->
             let sp = Safe_pci.init dut in
             let s =
               fail_on_error "dut sud start"
                 (Driver_host.launch dut sp ~bdf:bdf_dut ~name:"eth0"
                    (Driver_host.net ()) E1000.driver)
             in
             (Driver_host.netdev s, Some s)
         in
         fail_on_error "dut up" (Netstack.ifconfig_up dut.Kernel.net dev_dut);
         rig := Some { eng; dut; peer; dev_dut; dev_peer; nic_dut; started })
     : Fiber.t);
  Engine.run ~max_time:1_000_000_000 eng;
  match !rig with
  | Some r -> r
  | None -> failwith "netperf rig setup did not complete"

(* Sample [rate_of] (a monotone counter) every interval until the CI
   converges; returns (rate_per_sec, cpu_fraction, samples). *)
let measure rig ~counter =
  let eng = rig.eng in
  let cpu = rig.dut.Kernel.cpu in
  let rates = Stats.Moments.create () in
  let cpus = Stats.Moments.create () in
  let samples = ref 0 in
  let finished = ref false in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"netperf-measure"
       (fun () ->
          ignore (Fiber.sleep eng warmup_ns : Fiber.wake);
          let continue_ = ref true in
          while !continue_ do
            let c0 = counter () in
            let b0 = Cpu.busy_ns cpu in
            let t0 = Engine.now eng in
            ignore (Fiber.sleep eng interval_ns : Fiber.wake);
            let dt = Engine.now eng - t0 in
            let rate = float_of_int (counter () - c0) *. 1e9 /. float_of_int dt in
            Stats.Moments.add rates rate;
            Stats.Moments.add cpus (Cpu.utilization cpu ~since_busy:b0 ~since_time:t0);
            incr samples;
            if
              !samples >= max_samples
              || (!samples >= 5
                  && Stats.Moments.converged rates ~confidence:0.99 ~accuracy:0.05)
            then continue_ := false
          done;
          finished := true)
     : Fiber.t);
  (* Run until the measurement fiber finishes (traffic fibers keep going). *)
  let guard = ref 0 in
  while (not !finished) && !guard < 10_000 do
    incr guard;
    Engine.run ~max_events:2_000_000
      ~max_time:(Engine.now eng + (5 * interval_ns))
      eng
  done;
  if not !finished then failwith "netperf measurement did not converge or deadlocked";
  (Stats.Moments.mean rates, Stats.Moments.mean cpus, !samples)

(* ---- TCP_STREAM: peer streams to DUT; DUT receive throughput ---- *)

let tcp_stream mode =
  let rig = make_rig mode in
  let bytes_received = ref 0 in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"tcp-server"
       (fun () ->
          let st = Netstack.stream_listen rig.dut.Kernel.net rig.dev_dut ~port:5001 in
          let rec drain () =
            match Netstack.stream_recv rig.dut.Kernel.net st with
            | Some b ->
              bytes_received := !bytes_received + Bytes.length b;
              drain ()
            | None -> ()
          in
          drain ())
     : Fiber.t);
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs) ~name:"tcp-client"
       (fun () ->
          ignore (Fiber.sleep rig.eng 1_000_000 : Fiber.wake);
          match
            Netstack.stream_connect rig.peer.Kernel.net rig.dev_peer ~dst:mac_dut
              ~dst_port:5001 ~src_port:45000
          with
          | Error _ -> ()
          | Ok st ->
            (* 16384-byte sends into an 87380-ish window, as netperf does. *)
            let chunk = Bytes.make 16384 's' in
            let rec pump () =
              match Netstack.stream_send rig.peer.Kernel.net st chunk with
              | Ok () -> pump ()
              | Error _ -> ()
            in
            pump ())
     : Fiber.t);
  let rate, cpu, samples = measure rig ~counter:(fun () -> !bytes_received) in
  { throughput = rate *. 8.0 /. 1e6; units = "Mbits/sec"; cpu_pct = cpu *. 100.0; samples }

(* ---- UDP_STREAM TX: DUT floods the peer with 64-byte datagrams ---- *)

let udp_stream_tx mode =
  let rig = make_rig mode in
  let received = ref 0 in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs) ~name:"udp-sink"
       (fun () ->
          let sock = Netstack.udp_bind rig.peer.Kernel.net rig.dev_peer ~port:7 in
          let rec drain () =
            match Netstack.udp_recv rig.peer.Kernel.net sock with
            | Some _ ->
              incr received;
              drain ()
            | None -> ()
          in
          drain ())
     : Fiber.t);
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"udp-source"
       (fun () ->
          let sock = Netstack.udp_bind rig.dut.Kernel.net rig.dev_dut ~port:9000 in
          let payload = Bytes.make msg_size 'u' in
          let rec pump () =
            ignore
              (Netstack.udp_sendto rig.dut.Kernel.net sock ~dst:mac_peer ~dst_port:7 payload
               : [ `Sent | `Dropped ]);
            pump ()
          in
          pump ())
     : Fiber.t);
  let rate, cpu, samples = measure rig ~counter:(fun () -> !received) in
  { throughput = rate /. 1e3; units = "Kpackets/sec"; cpu_pct = cpu *. 100.0; samples }

(* ---- UDP_STREAM RX: peer floods the DUT ---- *)

let udp_stream_rx mode =
  let rig = make_rig mode in
  let received = ref 0 in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"udp-sink"
       (fun () ->
          let sock = Netstack.udp_bind rig.dut.Kernel.net rig.dev_dut ~port:7 in
          let rec drain () =
            match Netstack.udp_recv rig.dut.Kernel.net sock with
            | Some _ ->
              incr received;
              drain ()
            | None -> ()
          in
          drain ())
     : Fiber.t);
  (* Two sender fibers on the 4-core peer so the DUT is the bottleneck. *)
  for i = 1 to 2 do
    ignore
      (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs)
         ~name:(Printf.sprintf "udp-source-%d" i) (fun () ->
             let sock =
               Netstack.udp_bind rig.peer.Kernel.net rig.dev_peer ~port:(9000 + i)
             in
             let payload = Bytes.make msg_size 'u' in
             let rec pump () =
               ignore
                 (Netstack.udp_sendto rig.peer.Kernel.net sock ~dst:mac_dut ~dst_port:7 payload
                  : [ `Sent | `Dropped ]);
               pump ()
             in
             pump ())
       : Fiber.t)
  done;
  let rate, cpu, samples = measure rig ~counter:(fun () -> !received) in
  { throughput = rate /. 1e3; units = "Kpackets/sec"; cpu_pct = cpu *. 100.0; samples }

(* ---- UDP_RR: request/response ping-pong, client on the peer ---- *)

let udp_rr mode =
  let rig = make_rig mode in
  let transactions = ref 0 in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"rr-server"
       (fun () ->
          let sock = Netstack.udp_bind rig.dut.Kernel.net rig.dev_dut ~port:7 in
          let rec serve () =
            match Netstack.udp_recv rig.dut.Kernel.net sock with
            | Some (data, (src, sport)) ->
              ignore
                (Netstack.udp_sendto rig.dut.Kernel.net sock ~dst:src ~dst_port:sport data
                 : [ `Sent | `Dropped ]);
              serve ()
            | None -> ()
          in
          serve ())
     : Fiber.t);
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs) ~name:"rr-client"
       (fun () ->
          let sock = Netstack.udp_bind rig.peer.Kernel.net rig.dev_peer ~port:9000 in
          let payload = Bytes.make msg_size 'r' in
          let rec pump () =
            match
              Netstack.udp_sendto rig.peer.Kernel.net sock ~dst:mac_dut ~dst_port:7 payload
            with
            | `Dropped -> pump ()
            | `Sent ->
              (match Netstack.udp_recv rig.peer.Kernel.net sock with
               | Some _ ->
                 incr transactions;
                 pump ()
               | None -> ())
          in
          pump ())
     : Fiber.t);
  let rate, cpu, samples = measure rig ~counter:(fun () -> !transactions) in
  { throughput = rate; units = "Tx/sec"; cpu_pct = cpu *. 100.0; samples }

(* ---- netperf_mq: the multiqueue sweep ---- *)

(* Aggregate UDP receive across [mq_flows] concurrent flows (distinct port
   pairs, so RSS spreads them), with the DUT's e1000 brought up SUD-style
   on 1..8 MSI-X vectors.  The DUT gets 8 cores so the core count never
   caps the sweep: what scales is the number of parallel channels through
   the driver process — per-vector interrupts, per-queue uchan rings,
   per-queue service fibers. *)

type mq_point = {
  mq_queues : int;
  mq_kpps : float;
  mq_cpu_pct : float;
  mq_samples : int;
  mq_rxq_frames : int list;   (* device-side frames landed per RX queue *)
}

let mq_flows = 8

(* Destination ports chosen so the 8 flows shard perfectly under
   [Rss.queue_for]: one flow per queue at 8 queues, two per queue at 4,
   four per queue at 2.  Naive consecutive ports leave queues idle and
   understate the multiqueue win. *)
let mq_dports = [| 7; 9; 10; 11; 13; 14; 23; 33 |]

(* Common body of the multiqueue and batch benches: [mq_flows] concurrent
   UDP flows into the SUD DUT; returns the rate plus absolute frame and
   IRQ-upcall counts so callers can derive the coalescing ratio.  [batch]
   overrides the uchan accumulation threshold (1 = ship every frame in
   its own slot, reproducing the pre-batching wire traffic). *)
let udp_multi_rx_gen ?batch ?rate_bps ?peer_queues ~queues () =
  let rig = make_rig ~queues ?peer_queues ~dut_cores:8 ~peer_cores:16 ?rate_bps Sud_driver in
  (match batch, rig.started with
   | Some b, Some s -> Uchan.set_batch_limit (Driver_host.chan s) b
   | _ -> ());
  let irqs () =
    match rig.started with
    | Some s -> Safe_pci.grant_irqs_delivered (Driver_host.grant s)
    | None -> 0
  in
  let irqs0 = irqs () in
  let received = ref 0 in
  for i = 0 to mq_flows - 1 do
    let port = mq_dports.(i) in
    ignore
      (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs)
         ~name:(Printf.sprintf "mq-sink-%d" i) (fun () ->
             let sock = Netstack.udp_bind rig.dut.Kernel.net rig.dev_dut ~port in
             let rec drain () =
               match Netstack.udp_recv rig.dut.Kernel.net sock with
               | Some _ ->
                 incr received;
                 drain ()
               | None -> ()
             in
             drain ())
       : Fiber.t);
    ignore
      (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs)
         ~name:(Printf.sprintf "mq-source-%d" i) (fun () ->
             let sock =
               Netstack.udp_bind rig.peer.Kernel.net rig.dev_peer ~port:(9093 + port)
             in
             let payload = Bytes.make msg_size 'm' in
             let rec pump () =
               ignore
                 (Netstack.udp_sendto rig.peer.Kernel.net sock ~dst:mac_dut ~dst_port:port
                    payload
                  : [ `Sent | `Dropped ]);
               pump ()
             in
             pump ())
       : Fiber.t)
  done;
  let rate, cpu, samples = measure rig ~counter:(fun () -> !received) in
  (rig, rate, cpu, samples, !received, irqs () - irqs0)

let udp_multi_rx ~queues =
  let rig, rate, cpu, samples, _frames, _irqs = udp_multi_rx_gen ~queues () in
  { mq_queues = queues;
    mq_kpps = rate /. 1e3;
    mq_cpu_pct = cpu *. 100.0;
    mq_samples = samples;
    mq_rxq_frames =
      List.init queues (fun q -> E1000_dev.rx_queue_frames rig.nic_dut ~queue:q) }

let mq_sweep () = List.map (fun queues -> udp_multi_rx ~queues) [ 1; 2; 4; 8 ]

(* ---- netperf_batch: frame aggregation sweep (make bench-batch) ---- *)

type batch_point = {
  bp_queues : int;
  bp_batch : int;               (* uchan batch limit applied to the DUT *)
  bp_kpps : float;
  bp_cpu_pct : float;
  bp_samples : int;
  bp_frames : int;              (* datagrams delivered over the whole run *)
  bp_irqs : int;                (* interrupt upcalls forwarded over the run *)
  bp_cpu_ns_per_frame : float;  (* DUT CPU busy-ns per delivered datagram *)
}

(* The batch sweep runs on a 10 GbE medium: at 1 Gb/s the 64-byte-payload
   flood saturates the wire itself at ~1.126 Mpps (111 bytes on the wire
   per frame), which is exactly where BENCH_4's 4- and 8-queue points sit
   — no datapath change can move a line-rate-bound number.  Ten gigabit
   puts the bottleneck back on per-frame CPU cost, which is what frame
   aggregation and the fused copy+checksum attack. *)
let batch_rate_bps = 10_000_000_000

(* The peer drives the flood through an 8-queue NIC of its own: with one
   TX queue, HARD_TX_LOCK serializes every flow through one ~620ns xmit
   critical section — a 1.61Mpps sender-side ceiling that would masquerade
   as the DUT plateau.  The peer exists to be overprovisioned. *)
let peer_tx_queues = 8

let udp_batch_rx ~queues ~batch =
  let rig, rate, cpu, samples, frames, irqs =
    udp_multi_rx_gen ~batch ~rate_bps:batch_rate_bps ~peer_queues:peer_tx_queues ~queues ()
  in
  { bp_queues = queues;
    bp_batch = batch;
    bp_kpps = rate /. 1e3;
    bp_cpu_pct = cpu *. 100.0;
    bp_samples = samples;
    bp_frames = frames;
    bp_irqs = irqs;
    bp_cpu_ns_per_frame =
      float_of_int (Cpu.busy_ns rig.dut.Kernel.cpu) /. float_of_int (max 1 frames) }

type row = { test : string; driver : string; value : string; cpu : string }

let row_of test mode (r : result) =
  { test;
    driver = mode_name mode;
    value = Printf.sprintf "%.0f %s" r.throughput r.units;
    cpu = Printf.sprintf "%.0f%%" (r.cpu_pct +. 0.5) }

let figure8 () =
  List.concat_map
    (fun (test, bench) ->
       List.map
         (fun mode -> row_of test mode (bench mode))
         [ Kernel_driver; Sud_driver ])
    [ ("TCP_STREAM", fun m -> tcp_stream m);
      ("UDP_STREAM TX", fun m -> udp_stream_tx m);
      ("UDP_STREAM RX", fun m -> udp_stream_rx m);
      ("UDP_RR", fun m -> udp_rr m) ]
