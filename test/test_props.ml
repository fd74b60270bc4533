(* Cross-cutting property tests and determinism checks. *)

open Helpers

(* Model-based IOMMU check: random map/unmap sequences against a page-level
   reference model. *)
let iommu_model_test =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (let* op = int_bound 2 in
         let* page = int_bound 63 in
         let* count = int_range 1 4 in
         return (op, page, count)))
  in
  QCheck.Test.make ~name:"iommu matches a reference model" ~count:200 (QCheck.make gen)
    (fun ops ->
       let io = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
       let d = Iommu.attach io ~source:3 in
       let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
       let base = 0x40000000 and pbase = 0x200000 in
       let ok = ref true in
       List.iter
         (fun (op, page, count) ->
            if op = 0 then begin
              (* map [page, page+count) if none of it is already mapped *)
              let free =
                List.for_all (fun i -> not (Hashtbl.mem model (page + i)))
                  (List.init count Fun.id)
              in
              if free && page + count <= 64 then begin
                Iommu.map io d ~iova:(base + (page * 4096)) ~phys:(pbase + (page * 4096))
                  ~len:(count * 4096) ~writable:true;
                List.iter
                  (fun i -> Hashtbl.replace model (page + i) (pbase + ((page + i) * 4096)))
                  (List.init count Fun.id)
              end
            end
            else if op = 1 && page + count <= 64 then begin
              Iommu.unmap io d ~iova:(base + (page * 4096)) ~len:(count * 4096);
              List.iter (fun i -> Hashtbl.remove model (page + i)) (List.init count Fun.id)
            end
            else begin
              (* verify a translation *)
              let addr = base + (page * 4096) + 123 in
              match (Iommu.translate io ~source:3 ~addr ~dir:Bus.Dma_write,
                     Hashtbl.find_opt model page) with
              | `Phys p, Some expect -> if p <> expect + 123 then ok := false
              | `Fault _, None -> ()
              | `Phys _, None | `Fault _, Some _ | `Msi, _ -> ok := false
            end)
         ops;
       !ok)

(* IOTLB invalidation: random map/unmap/flush/detach sequences with a
   translation probe after every step.  A probe that returns a physical
   address the reference model doesn't sanction means a stale cached
   translation survived an invalidation — exactly the containment hole the
   mandatory scrubbing in unmap/detach/iotlb_flush exists to prevent. *)
let iotlb_invalidation_test =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        (let* op = int_bound 4 in
         let* page = int_bound 63 in
         let* count = int_range 1 4 in
         let* writable = bool in
         return (op, page, count, writable)))
  in
  QCheck.Test.make ~name:"no stale IOTLB translation survives invalidation" ~count:300
    (QCheck.make gen)
    (fun ops ->
       let io = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
       let source = 3 in
       let d = ref (Iommu.attach io ~source) in
       (* page -> (phys, writable) *)
       let model : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
       let base = 0x40000000 and pbase = 0x200000 in
       let ok = ref true in
       let probe page =
         let addr = base + (page * 4096) + 123 in
         let expect = Hashtbl.find_opt model page in
         (match (Iommu.translate io ~source ~addr ~dir:Bus.Dma_read, expect) with
          | `Phys p, Some (phys, _) -> if p <> phys + 123 then ok := false
          | `Fault _, None -> ()
          | `Phys _, None | `Fault _, Some _ | `Msi, _ -> ok := false);
         match (Iommu.translate io ~source ~addr ~dir:Bus.Dma_write, expect) with
         | `Phys p, Some (phys, true) -> if p <> phys + 123 then ok := false
         | `Fault _, (None | Some (_, false)) -> ()
         | `Phys _, (None | Some (_, false)) | `Fault _, Some (_, true) | `Msi, _ ->
           ok := false
       in
       List.iter
         (fun (op, page, count, writable) ->
            (match op with
             | 0 ->
               let free =
                 List.for_all (fun i -> not (Hashtbl.mem model (page + i)))
                   (List.init count Fun.id)
               in
               if free && page + count <= 64 then begin
                 Iommu.map io !d ~iova:(base + (page * 4096)) ~phys:(pbase + (page * 4096))
                   ~len:(count * 4096) ~writable;
                 List.iter
                   (fun i ->
                      Hashtbl.replace model (page + i)
                        (pbase + ((page + i) * 4096), writable))
                   (List.init count Fun.id)
               end
             | 1 ->
               if page + count <= 64 then begin
                 Iommu.unmap io !d ~iova:(base + (page * 4096)) ~len:(count * 4096);
                 List.iter (fun i -> Hashtbl.remove model (page + i)) (List.init count Fun.id)
               end
             | 2 -> ()  (* probe only *)
             | 3 -> Iommu.iotlb_flush io !d
             | _ ->
               (* Detach and re-attach: every mapping (and every cached
                  translation) of the old domain must die with it. *)
               Iommu.detach io ~source;
               Hashtbl.reset model;
               d := Iommu.attach io ~source);
            probe page)
         ops;
       (* Counter sanity: every translation either hit or missed. *)
       let m = Iommu.metrics io in
       !ok
       && Sud_obs.Metrics.gauge_value m.Iommu.im_hits >= 0
       && Sud_obs.Metrics.gauge_value m.Iommu.im_misses > 0)

(* Random config-space writes through the SUD filter never re-enable INTx
   and never move a BAR. *)
let cfg_filter_invariant =
  let gen =
    QCheck.Gen.(list_size (int_range 1 40) (pair (int_bound 255) (int_bound 0xFFFF)))
  in
  QCheck.Test.make ~name:"config filter preserves INTx-disable and BARs" ~count:60
    (QCheck.make gen)
    (fun writes ->
       run_in_kernel setup_duo (fun k duo ->
           let sp = Safe_pci.init k in
           Safe_pci.register_device sp duo.bdf_a;
           Safe_pci.set_owner sp duo.bdf_a ~uid:1000;
           let proc = Process.spawn k.Kernel.procs ~name:"fuzz" ~uid:1000 in
           let g =
             ok_or_fail "open" (Safe_pci.open_device sp ~caps:(Quota.table None proc) duo.bdf_a ~proc)
           in
           let bar_before = Pci_topology.bar_region k.Kernel.topo duo.bdf_a ~bar:0 in
           List.iter
             (fun (off, v) ->
                let size = if off land 1 = 0 then 2 else 1 in
                ignore (Safe_pci.cfg_write g ~off ~size v : (unit, string) result))
             writes;
           let cmd =
             Pci_topology.cfg_read k.Kernel.topo duo.bdf_a ~off:Pci_cfg.command ~size:2
           in
           cmd land Pci_cfg.cmd_intx_disable <> 0
           && Pci_topology.bar_region k.Kernel.topo duo.bdf_a ~bar:0 = bar_before))

(* Stream data integrity with arbitrary chunking. *)
let stream_integrity =
  let gen = QCheck.Gen.(list_size (int_range 1 8) (string_size (int_range 1 5000))) in
  QCheck.Test.make ~name:"stream delivers exact bytes under random chunking" ~count:8
    (QCheck.make gen)
    (fun chunks ->
       let sent = String.concat "" chunks in
       let received =
         run_in_kernel setup_duo (fun k duo ->
             let dev_a = up_native ~name:"eth0" k duo.bdf_a in
             let dev_b = up_native ~name:"eth1" k duo.bdf_b in
             let buf = Buffer.create 1024 in
             ignore
               (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"srv"
                  (fun () ->
                     let st = Netstack.stream_listen k.Kernel.net dev_b ~port:80 in
                     let rec drain () =
                       match Netstack.stream_recv k.Kernel.net st with
                       | Some b ->
                         Buffer.add_bytes buf b;
                         drain ()
                       | None -> ()
                     in
                     drain ())
                : Fiber.t);
             let st =
               ok_or_fail "connect"
                 (Netstack.stream_connect k.Kernel.net dev_a ~dst:(Netdev.mac dev_b)
                    ~dst_port:80 ~src_port:999)
             in
             List.iter
               (fun c -> ok_or_fail "send" (Netstack.stream_send k.Kernel.net st
                                              (Bytes.of_string c)))
               chunks;
             Netstack.stream_close k.Kernel.net st;
             ignore (Fiber.sleep k.Kernel.eng 100_000_000 : Fiber.wake);
             Buffer.contents buf)
       in
       received = sent)

(* Determinism: the same scenario produces bit-identical klogs. *)
let test_determinism () =
  let run () =
    run_in_kernel setup_duo (fun k duo ->
        let sp = Safe_pci.init k in
        let s =
          ok_or_fail "start" (Driver_host.launch k sp (Driver_host.net ()) ~bdf:duo.bdf_a ~name:"eth0" E1000.driver)
        in
        ok_or_fail "up" (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s));
        let dev_b = up_native ~name:"eth1" k duo.bdf_b in
        let sa = Netstack.udp_bind k.Kernel.net (Driver_host.netdev s) ~port:1 in
        for i = 1 to 20 do
          ignore
            (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:2
               (Bytes.make 64 (Char.chr i))
             : [ `Sent | `Dropped ]);
          ignore (Fiber.sleep k.Kernel.eng 100_000 : Fiber.wake)
        done;
        ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
        (Engine.now k.Kernel.eng, List.map (fun (t, _, m) -> (t, m)) (Klog.entries k.Kernel.klog)))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical final time and klog" true (a = b)

let test_spinlock_contention_detected () =
  run_in_kernel setup_duo (fun k _duo ->
      let l = Preempt.Spinlock.create k.Kernel.preempt in
      Preempt.Spinlock.lock l;
      (* A second fiber contending on a single simulated runqueue would spin
         forever: the simulator calls it out as a deadlock. *)
      let deadlocked = ref false in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"contender"
           (fun () ->
              match Preempt.Spinlock.lock l with
              | () -> ()
              | exception Failure _ -> deadlocked := true)
         : Fiber.t);
      ignore (Fiber.sleep k.Kernel.eng 1_000_000 : Fiber.wake);
      Preempt.Spinlock.unlock l;
      Alcotest.(check bool) "contention reported" true !deadlocked)

let test_e1000_subword_mmio () =
  run_in_kernel setup_duo (fun k duo ->
      ignore k;
      let ops = Device.ops (E1000_dev.device duo.nic_a) in
      (* Byte-wise read of STATUS assembles the same value as a dword read. *)
      let dword = ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.status ~size:4 in
      let by_bytes =
        List.fold_left
          (fun acc i ->
             acc lor (ops.Device.mmio_read ~bar:0 ~off:(E1000_dev.Regs.status + i) ~size:1 lsl (8 * i)))
          0 [ 0; 1; 2; 3 ]
      in
      Alcotest.(check int) "sub-word access consistent" dword by_bytes)

(* RSS sharding is only sound if the queue is a pure, stable function of
   the flow-identifying bytes: the device picks the RX queue from the wire
   frame while the kernel picks the TX queue from the skb, and per-flow
   order across a driver restart relies on both picking the same queue
   every time. *)
let rss_stability_test =
  let gen =
    QCheck.Gen.(
      let* flow = string_size (return Rss.flow_span) in
      let* tail_a = string_size (int_range 0 64) in
      let* tail_b = string_size (int_range 0 64) in
      let* queues = int_range 1 8 in
      return (flow, tail_a, tail_b, queues))
  in
  QCheck.Test.make ~name:"RSS: queue is a stable function of the flow bytes" ~count:500
    (QCheck.make gen)
    (fun (flow, ta, tb, queues) ->
       let fa = Bytes.of_string (flow ^ ta) and fb = Bytes.of_string (flow ^ tb) in
       let qa = Rss.queue_for ~queues fa in
       qa = Rss.queue_for ~queues fa
       && qa = Rss.queue_for ~queues fb   (* bytes past the span don't steer *)
       && qa >= 0 && qa < queues)

(* Per-queue backlog replay preserves per-flow packet order: frames parked
   while a driver is being restarted come back out in the order each flow
   sent them, because a flow always hashes to one queue and each queue's
   backlog is FIFO.  This is the invariant that lets the net proxy's
   resume replay queues one at a time without reordering anybody's
   stream. *)
let backlog_replay_order_test =
  let n_flows = 4 in
  let mk_frame ~flow ~seq =
    let b = Bytes.make (Rss.flow_span + 2) '\x00' in
    Bytes.set_uint16_be b 15 (1000 + flow);      (* sport *)
    Bytes.set_uint16_be b 17 (7 * (flow + 1));   (* dport *)
    Bytes.set_uint16_be b Rss.flow_span seq;
    b
  in
  let gen =
    QCheck.Gen.(
      let* frames = list_size (int_range 1 100) (int_bound (n_flows - 1)) in
      let* queues = int_range 1 8 in
      return (frames, queues))
  in
  QCheck.Test.make ~name:"backlog replay preserves per-flow order" ~count:200
    (QCheck.make gen)
    (fun (flows, queues) ->
       let ops =
         { Netdev.ndo_open = (fun () -> Ok ());
           ndo_stop = ignore;
           ndo_start_xmit = (fun ~queue:_ _ -> Netdev.Xmit_ok);
           ndo_do_ioctl = (fun ~cmd:_ ~arg:_ -> Ok 0) }
       in
       let dev =
         Netdev.create ~name:"ethp" ~mac:(Bytes.make 6 '\x02') ~ops ~tx_queues:queues ()
       in
       (* Offer: per-flow ascending sequence numbers, queue chosen by RSS
          exactly as Netstack.dev_xmit would. *)
       let next_seq = Array.make n_flows 0 in
       let offered = Array.make n_flows [] in
       List.iter
         (fun flow ->
            let seq = next_seq.(flow) in
            next_seq.(flow) <- seq + 1;
            offered.(flow) <- seq :: offered.(flow);
            let data = mk_frame ~flow ~seq in
            let queue = Rss.queue_for ~queues data in
            match Netdev.backlog_push dev ~queue ~limit:1000 (Skbuff.of_bytes data) with
            | Netdev.Xmit_ok -> ()
            | Netdev.Xmit_busy -> failwith "unexpected backlog overflow")
         flows;
       (* Replay the way the net proxy's resume does: drain queue 0
          fully, then queue 1, ... *)
       let replayed = Array.make n_flows [] in
       for q = 0 to queues - 1 do
         let rec go () =
           match Netdev.backlog_pop dev ~queue:q with
           | None -> ()
           | Some skb ->
             let flow = Bytes.get_uint16_be skb.Skbuff.data 15 - 1000 in
             let seq = Bytes.get_uint16_be skb.Skbuff.data Rss.flow_span in
             replayed.(flow) <- seq :: replayed.(flow);
             go ()
         in
         go ()
       done;
       Array.for_all2 (fun a b -> a = b) offered replayed)

let suite =
  [ Alcotest.test_case "determinism: identical runs" `Quick test_determinism;
    Alcotest.test_case "spinlock: contention = deadlock report" `Quick
      test_spinlock_contention_detected;
    Alcotest.test_case "e1000: sub-word MMIO" `Quick test_e1000_subword_mmio ]
  @ List.map QCheck_alcotest.to_alcotest
      [ iommu_model_test; iotlb_invalidation_test; cfg_filter_invariant; stream_integrity;
        rss_stability_test; backlog_replay_order_test ]
