(* Unit and property tests for the uchan layer: message marshalling, ring
   buffers, the shared buffer pool, and RPC semantics. *)

let with_kernel fn =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  fn eng k

let in_fiber eng k fn =
  let ok = ref false in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"t" (fun () ->
         fn ();
         ok := true)
     : Fiber.t);
  Engine.run ~max_time:(Engine.now eng + 30_000_000_000) eng;
  Alcotest.(check bool) "fiber completed" true !ok

(* ---- msg ---- *)

let test_msg_roundtrip () =
  let m = Msg.make ~seq:7 ~args:[ 1; 2; 3 ] ~payload:(Bytes.of_string "hi") ~buf:5 ~kind:42 () in
  let slot = Bytes.make Msg.slot_size '\000' in
  Msg.marshal_into m slot;
  match Msg.unmarshal_view slot with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check int) "kind" 42 m'.Msg.kind;
    Alcotest.(check int) "seq" 7 m'.Msg.seq;
    Alcotest.(check int) "buf" 5 m'.Msg.buf;
    Alcotest.(check int) "arg" 2 (Msg.arg m' 1);
    Alcotest.(check int) "missing arg defaults" 0 (Msg.arg m' 5);
    Alcotest.(check string) "payload" "hi" (Bytes.to_string m'.Msg.payload)

let test_msg_validation () =
  Alcotest.(check bool) "oversized payload rejected" true
    (match Msg.make ~payload:(Bytes.make 200 'x') ~kind:1 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  (* A malicious driver writes garbage into the ring: unmarshal must not
     trust the length fields. *)
  let evil = Bytes.make Msg.slot_size '\xFF' in
  Alcotest.(check bool) "garbage slot rejected" true
    (Result.is_error (Msg.unmarshal_view evil));
  Alcotest.(check bool) "wrong size rejected" true
    (Result.is_error (Msg.unmarshal_view (Bytes.make 10 '\x00')))

(* ---- ring ---- *)

let test_ring_fifo () =
  let r = Ring.create ~slots:4 in
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  for i = 1 to 4 do
    Alcotest.(check bool) "push" true
      (Ring.push_inplace r (Msg.marshal_into (Msg.make ~kind:i ())))
  done;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check bool) "push on full fails" false
    (Ring.push_inplace r (fun _ -> Alcotest.fail "writer called on a full ring"));
  for i = 1 to 4 do
    match Ring.pop_inplace r Msg.unmarshal_view with
    | Some (Ok m) -> Alcotest.(check int) "FIFO order" i m.Msg.kind
    | Some (Error e) -> Alcotest.fail e
    | None -> Alcotest.fail "pop"
  done;
  Alcotest.(check bool) "drained" true (Ring.is_empty r)

let test_ring_power_of_two () =
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Ring.create: slots must be a positive power of two") (fun () ->
        ignore (Ring.create ~slots:3 : Ring.t))

(* ---- bufpool ---- *)

let mk_pool () =
  let backing = Bytes.make (Bufpool.region_size ~count:4 ~buf_size:256) '\000' in
  Bufpool.create
    ~read:(fun ~off ~len -> Bytes.sub backing off len)
    ~write:(fun ~off ~data -> Bytes.blit data 0 backing off (Bytes.length data))
    ~base_addr:0x42430000 ~count:4 ~buf_size:256

let test_bufpool_alloc_free () =
  let p = mk_pool () in
  let b1 = Option.get (Bufpool.alloc p) in
  let b2 = Option.get (Bufpool.alloc p) in
  Alcotest.(check bool) "distinct addrs" true (b1.Bufpool.addr <> b2.Bufpool.addr);
  Alcotest.(check int) "addr derives from base" 0x42430000 b1.Bufpool.addr;
  Alcotest.(check int) "in use" 2 (Bufpool.in_use p);
  Bufpool.free p b1.Bufpool.id;
  Alcotest.(check int) "freed" 1 (Bufpool.in_use p);
  Bufpool.free p b1.Bufpool.id;   (* double free ignored *)
  Alcotest.(check int) "double free ignored" 1 (Bufpool.in_use p);
  Bufpool.free p 99;              (* wild id ignored *)
  Alcotest.(check int) "wild free ignored" 1 (Bufpool.in_use p)

let test_bufpool_exhaustion () =
  let p = mk_pool () in
  for _ = 1 to 4 do ignore (Bufpool.alloc p : Bufpool.buf option) done;
  Alcotest.(check bool) "exhausted" true (Bufpool.alloc p = None)

let test_bufpool_validation () =
  let p = mk_pool () in
  let b = Option.get (Bufpool.alloc p) in
  Alcotest.(check bool) "valid id" true (Bufpool.get p b.Bufpool.id <> None);
  Alcotest.(check bool) "unallocated id rejected" true (Bufpool.get p 3 = None);
  Alcotest.(check bool) "wild id rejected" true (Bufpool.get p 1234 = None);
  Bufpool.write p b ~off:10 (Bytes.of_string "abc");
  Alcotest.(check string) "rw" "abc" (Bytes.to_string (Bufpool.read p b ~off:10 ~len:3));
  Alcotest.check_raises "oob" (Invalid_argument "Bufpool: out of bounds") (fun () ->
      ignore (Bufpool.read p b ~off:250 ~len:10 : bytes))

(* The block pool's geometry, 64 buffers of 8 pages: each buffer's
   single-page request lands on a page of its own IOTLB set, where the
   buffers' first pages share 8 sets; a request of a whole buffer still
   starts at it.  A pool of one-page buffers keeps every request at its
   buffer's address. *)
let test_bufpool_request_spread () =
  let page = 4096 in
  let pool ~count ~buf_size =
    Bufpool.create
      ~read:(fun ~off:_ ~len -> Bytes.create len)
      ~write:(fun ~off:_ ~data:_ -> ())
      ~base_addr:0x40000000 ~count ~buf_size
  in
  let all p = List.init 64 (fun _ -> Option.get (Bufpool.alloc p)) in
  let blk = all (pool ~count:64 ~buf_size:(64 * Blkdev.sector_size)) in
  let inside b ~len =
    let a = Bufpool.request_addr b ~len in
    a mod page = 0 && a >= b.Bufpool.addr && a + len <= b.Bufpool.addr + b.Bufpool.size
  in
  let sets =
    List.sort_uniq compare
      (List.map (fun b -> Bufpool.request_addr b ~len:page / page mod Iommu.iotlb_slots) blk)
  in
  Alcotest.(check int) "single-page requests: one IOTLB set per buffer" 64 (List.length sets);
  List.iter
    (fun b ->
       List.iter
         (fun len ->
            if not (inside b ~len) then
              Alcotest.failf "buffer %d: a %d-byte request leaves it" b.Bufpool.id len)
         [ 512; page; 3 * page; 5 * page + 512; b.Bufpool.size ];
       Alcotest.(check int) "a full request starts at its buffer" b.Bufpool.addr
         (Bufpool.request_addr b ~len:b.Bufpool.size))
    blk;
  List.iter
    (fun b ->
       Alcotest.(check int) "one-page buffers keep their address" b.Bufpool.addr
         (Bufpool.request_addr b ~len:page))
    (all (pool ~count:64 ~buf_size:page))

(* ---- uchan RPC semantics ---- *)

let test_uchan_sync_upcall () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      ignore
        (Process.spawn_fiber proc (fun () ->
             let rec serve () =
               match Uchan.wait chan with
               | Ok m ->
                 Uchan.reply chan
                   (Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ~args:[ Msg.arg m 0 * 2 ] ());
                 serve ()
               | Error _ -> ()
             in
             serve ())
         : Fiber.t);
      in_fiber eng k (fun () ->
          match Uchan.call chan (Msg.make ~kind:4 ~args:[ 21 ] ()) with
          | Ok r -> Alcotest.(check int) "doubled" 42 (Msg.arg r 0)
          | Error _ -> Alcotest.fail "sync send failed"))

let test_uchan_hang_detection () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      (* No driver fiber at all: the upcall must come back Hung within the
         timeout, not block forever. *)
      in_fiber eng k (fun () ->
          let t0 = Engine.now eng in
          (match Uchan.call chan (Msg.make ~kind:1 ()) with
           | Error Uchan.Hung -> ()
           | Ok _ | Error _ -> Alcotest.fail "expected Hung");
          Alcotest.(check bool) "took about the hang timeout" true
            (Engine.now eng - t0 >= Uchan.hang_timeout_ns)))

let test_uchan_interruptible () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      let result = ref None in
      let finished_at = ref max_int in
      let caller =
        Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"ifconfig"
          (fun () ->
             result := Some (Uchan.call chan (Msg.make ~kind:1 ()));
             finished_at := Engine.now eng)
      in
      (* Ctrl-C after 1ms, well before the hang timeout. *)
      ignore
        (Engine.schedule_after eng 1_000_000 (fun () ->
             ignore (Fiber.interrupt caller : bool))
         : Engine.handle);
      Engine.run ~max_time:20_000_000 eng;
      Alcotest.(check bool) "aborted by the user" true
        (!result = Some (Error Uchan.Interrupted));
      Alcotest.(check bool) "returned well before the timeout" true
        (!finished_at < Uchan.hang_timeout_ns))

let test_uchan_close_unblocks () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      let result = ref None in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"caller"
           (fun () -> result := Some (Uchan.call chan (Msg.make ~kind:1 ())))
         : Fiber.t);
      ignore (Engine.schedule_after eng 1_000 (fun () -> Uchan.close chan) : Engine.handle);
      Engine.run ~max_time:20_000_000 eng;
      Alcotest.(check bool) "failed with Closed" true (!result = Some (Error Uchan.Closed));
      Alcotest.(check bool) "is_closed" true (Uchan.is_closed chan);
      Alcotest.(check bool) "send after close" true
        (Uchan.call chan (Msg.make ~kind:1 ()) = Error Uchan.Closed))

let test_uchan_downcall () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      let asyncs = ref [] in
      Uchan.set_downcall_handler chan (fun ~queue:_ m ->
          if m.Msg.seq = 0 then begin
            asyncs := m.Msg.kind :: !asyncs;
            None
          end
          else Some (Msg.make ~kind:m.Msg.kind ~args:[ 99 ] ()));
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      let sync_result = ref None in
      ignore
        (Process.spawn_fiber proc (fun () ->
             Uchan.downcall_batched chan (Msg.make ~kind:101 ());
             Uchan.downcall_batched chan (Msg.make ~kind:102 ());
             sync_result := Some (Uchan.downcall chan (Msg.make ~kind:103 ())))
         : Fiber.t);
      Engine.run ~max_time:100_000_000 eng;
      (match !sync_result with
       | Some (Ok r) -> Alcotest.(check int) "reply delivered directly" 99 (Msg.arg r 0)
       | _ -> Alcotest.fail "sync downcall failed");
      (* The sync downcall ships the batch first: async downcalls arrive in order
         before the sync one completes. *)
      Alcotest.(check (list int)) "batched asyncs arrived in order" [ 101; 102 ]
        (List.rev !asyncs))

(* The sender's own kernel entry drains its sync downcall: the handler
   runs in the sending fiber, and the reply is in place before the
   sender would wait for it.  No kernel fiber serves the channel. *)
let test_uchan_sync_in_own_entry () =
  with_kernel (fun eng k ->
      let pending = Engine.pending eng in
      let chan = Uchan.create k ~driver_label:"d" () in
      Alcotest.(check int) "create starts no fiber" pending (Engine.pending eng);
      let ran_in = ref (-1) in
      Uchan.set_downcall_handler chan (fun ~queue:_ m ->
          ran_in := Fiber.id (Fiber.self ());
          Some (Msg.make ~kind:m.Msg.kind ~args:[ 42 ] ()));
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      let result = ref None in
      let f =
        Process.spawn_fiber proc (fun () ->
            result := Some (Uchan.downcall chan (Msg.make ~kind:7 ())))
      in
      Engine.run ~max_time:100_000_000 eng;
      (match !result with
       | Some (Ok r) -> Alcotest.(check int) "reply" 42 (Msg.arg r 0)
       | _ -> Alcotest.fail "sync downcall failed");
      Alcotest.(check int) "handler ran in the sender's fiber" (Fiber.id f) !ran_in)

(* A death closes the channel, and a drain stops at the first slot
   boundary after that.  So a driver whose second fiber keeps refilling
   u2k is dead within one handler (and the slot's own charge) of its
   kill, though the ring still holds a backlog. *)
let test_uchan_kill_bounds_drain () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      Uchan.set_batch_limit chan 1;
      let handler_ns = 5_000 and handled = ref 0 in
      Uchan.set_downcall_handler chan (fun ~queue:_ _ ->
          Cpu.consume k.Kernel.cpu ~label:"kernel:sud" handler_ns;
          incr handled;
          None);
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      Process.on_exit proc (fun () -> Uchan.close chan);
      let deaths = ref [] in
      let refill () =
        try
          while not (Uchan.is_closed chan) do
            Uchan.downcall_batched chan (Msg.make ~kind:5 ())
          done
        with Fiber.Killed ->
          deaths := Engine.now eng :: !deaths;
          raise Fiber.Killed
      in
      let a = Process.spawn_fiber proc refill and b = Process.spawn_fiber proc refill in
      let kill_at = 200_000 in
      ignore (Engine.schedule_after eng kill_at (fun () -> Process.kill proc) : Engine.handle);
      Engine.run ~max_time:10_000_000 eng;
      let m = Cost_model.default in
      let bound =
        kill_at + handler_ns + m.Cost_model.uchan_msg_ns + m.Cost_model.uchan_validate_ns
        + m.Cost_model.uchan_notify_ns
      in
      Alcotest.(check int) "both fibers died by Killed" 2 (List.length !deaths);
      Alcotest.(check bool) "fibers dead" false (Fiber.is_alive a || Fiber.is_alive b);
      List.iter
        (fun at ->
           if at > bound then Alcotest.failf "a fiber died at %d ns, after the bound %d" at bound)
        !deaths;
      let pushed = Sud_obs.Metrics.get (Uchan.metrics chan).Uchan.um_down in
      Alcotest.(check bool) "slots were left in the ring" true (pushed > !handled + 1))

(* Fault containment inside a batch slot: garbling one frame must drop
   exactly that frame (um_malformed ticks once), deliver its siblings in
   order, and leave the channel fully usable. *)
let test_uchan_batch_corrupt_frame () =
  with_kernel (fun eng k ->
      let chan = Uchan.create k ~driver_label:"d" () in
      Uchan.set_batch_limit chan 8;
      let got = ref [] in
      Uchan.set_downcall_handler chan (fun ~queue:_ m ->
          if m.Msg.seq = 0 then begin
            got := Msg.arg m 0 :: !got;
            None
          end
          else Some (Msg.make ~kind:m.Msg.kind ~args:[ 7 ] ()));
      let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
      let after = ref None in
      ignore
        (Process.spawn_fiber proc (fun () ->
             for i = 1 to 5 do
               Uchan.downcall_batched chan
                 (Msg.make ~kind:31 ~args:[ i; 0 ] ())
             done;
             (* Arm before the flush: the run of 5 goes out as one batch
                slot with its last frame garbled on the ring. *)
             Uchan.inject_corrupt_batch_frames chan 1;
             Uchan.flush chan;
             after := Some (Uchan.downcall chan (Msg.make ~kind:32 ())))
         : Fiber.t);
      Engine.run ~max_time:100_000_000 eng;
      Alcotest.(check (list int)) "siblings delivered in order" [ 1; 2; 3; 4 ]
        (List.rev !got);
      Alcotest.(check int) "exactly one frame counted malformed" 1
        (Sud_obs.Metrics.get (Uchan.metrics chan).Uchan.um_malformed_frames);
      Alcotest.(check int) "not a slot-level protocol violation" 0
        (Sud_obs.Metrics.get (Uchan.metrics chan).Uchan.um_malformed);
      (match !after with
       | Some (Ok r) -> Alcotest.(check int) "channel still serves syncs" 7 (Msg.arg r 0)
       | _ -> Alcotest.fail "sync downcall after corruption failed"))

let test_uchan_try_asend_full () =
  with_kernel (fun _ k ->
      let chan = Uchan.create k ~slots:4 ~driver_label:"d" () in
      (* Nobody drains: the ring fills and post_nonblock turns false instead of
         blocking (interrupt context requirement). *)
      let sent = ref 0 in
      while Uchan.post_nonblock chan (Msg.make ~kind:5 ()) do incr sent done;
      Alcotest.(check int) "bounded by ring size" 4 !sent)

(* ---- property tests ---- *)

let msg_gen =
  QCheck.Gen.(
    let* kind = int_range 0 0x7FFF in
    let* seq = int_range 0 1000000 in
    let* epoch = int_range 0 Msg.max_epoch in
    let* nargs = int_range 0 Msg.max_args in
    let* args = list_repeat nargs (int_range (-1000000) 1000000) in
    (* Often empty: an empty payload marshalled over a longer one is
       where a stale length byte would show. *)
    let* payload = frequency [ (1, return ""); (3, string_size (int_range 0 Msg.max_payload)) ] in
    let* buf = int_range (-1) 1000 in
    return (Msg.make ~seq ~epoch ~args ~payload:(Bytes.of_string payload) ~buf ~kind ()))

(* One slot for every case of the round-trip, as a ring slot is reused:
   each message is marshalled over the previous case's bytes, or over a
   0xFF fill.  [marshal_into] leaves bytes past the live fields in place,
   so the decoder must read none of them. *)
let stale_slot = Bytes.make Msg.slot_size '\xFF'

let qcheck_cases =
  [ QCheck.Test.make ~name:"msg marshal/unmarshal roundtrip" ~count:500
      (QCheck.make QCheck.Gen.(pair msg_gen bool))
      (fun (m, refill) ->
         if refill then Bytes.fill stale_slot 0 Msg.slot_size '\xFF';
         Msg.marshal_into m stale_slot;
         match Msg.unmarshal_view stale_slot with
         | Error _ -> false
         | Ok m' ->
           m'.Msg.kind = m.Msg.kind && m'.Msg.seq = m.Msg.seq && m'.Msg.buf = m.Msg.buf
           && m'.Msg.epoch = m.Msg.epoch
           && Array.to_list m'.Msg.args = Array.to_list m.Msg.args
           && Bytes.equal m'.Msg.payload m.Msg.payload);
    QCheck.Test.make ~name:"ring preserves order under mixed ops" ~count:200
      QCheck.(list (int_bound 1))
      (fun ops ->
         let r = Ring.create ~slots:16 in
         let model = Queue.create () in
         let next = ref 0 in
         let ok = ref true in
         List.iter
           (fun op ->
              if op = 0 then begin
                incr next;
                let pushed =
                  Ring.push_inplace r (Msg.marshal_into (Msg.make ~kind:(!next land 0x7FFF) ()))
                in
                if pushed then Queue.push (!next land 0x7FFF) model
              end
              else
                match (Ring.pop_inplace r Msg.unmarshal_view, Queue.take_opt model) with
                | None, None -> ()
                | Some decoded, Some expect ->
                  (match decoded with
                   | Ok m -> if m.Msg.kind <> expect then ok := false
                   | Error _ -> ok := false)
                | Some _, None | None, Some _ -> ok := false)
           ops;
         !ok && Ring.length r = Queue.length model);
    (* Batch container: a marshalled slot round-trips every entry, and a
       garbled entry fails exactly its own per-entry checksum — the
       containment unit the kernel-side decode relies on. *)
    QCheck.Test.make ~name:"batch slot roundtrip; corruption stays per-entry" ~count:300
      QCheck.(
        make
          Gen.(
            let* kind = int_range 0 0x7FFF in
            let* n = int_range 1 Msg.Batch.max_frames in
            let* entries =
              list_repeat n (pair (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF))
            in
            let* corrupt = int_range (-1) (n - 1) in
            return (kind, Array.of_list entries, corrupt)))
      (fun (kind, entries, corrupt) ->
         let slot = Bytes.create Msg.slot_size in
         Msg.Batch.marshal_into ~kind entries slot;
         if corrupt >= 0 then Msg.Batch.corrupt_entry slot corrupt;
         Msg.Batch.is_batch slot
         && (match Msg.Batch.unmarshal_view slot with
             | Error _ -> false
             | Ok (kind', epoch', decoded) ->
               kind' = kind && epoch' = 0
               && List.length decoded = Array.length entries
               && List.for_all2
                    (fun i d ->
                       if i = corrupt then Result.is_error d
                       else d = Ok entries.(i))
                    (List.init (Array.length entries) Fun.id)
                    decoded));
    (* Per-flow ordering survives every batching boundary: arbitrary flow
       interleavings, arbitrary accumulation thresholds, kind changes
       splitting coalescing runs, and the final sync-forced flush. *)
    QCheck.Test.make ~name:"batched downcalls preserve per-flow order" ~count:40
      QCheck.(make Gen.(pair (int_range 1 8) (list_size (int_range 1 60) (int_range 0 3))))
      (fun (limit, flows) ->
         with_kernel (fun eng k ->
             let chan = Uchan.create k ~driver_label:"d" () in
             Uchan.set_batch_limit chan limit;
             let got = Hashtbl.create 4 in
             let push tbl flow v =
               Hashtbl.replace tbl flow
                 (v :: (try Hashtbl.find tbl flow with Not_found -> []))
             in
             Uchan.set_downcall_handler chan (fun ~queue:_ m ->
                 if m.Msg.seq = 0 then begin
                   push got (m.Msg.kind - 10) (Msg.arg m 0);
                   None
                 end
                 else Some (Msg.make ~kind:m.Msg.kind ()));
             let sent = Hashtbl.create 4 in
             let finished = ref false in
             let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
             ignore
               (Process.spawn_fiber proc (fun () ->
                    List.iteri
                      (fun i flow ->
                         push sent flow i;
                         Uchan.downcall_batched chan
                           (Msg.make ~kind:(10 + flow) ~args:[ i; 0 ] ()))
                      flows;
                    (match
                       Uchan.downcall chan (Msg.make ~kind:9 ())
                     with
                     | Ok _ -> finished := true
                     | Error _ -> ()))
                : Fiber.t);
             Engine.run ~max_time:1_000_000_000 eng;
             !finished
             && List.for_all
                  (fun f ->
                     (try Hashtbl.find got f with Not_found -> [])
                     = (try Hashtbl.find sent f with Not_found -> []))
                  [ 0; 1; 2; 3 ])) ]

let suite =
  [ Alcotest.test_case "msg: roundtrip" `Quick test_msg_roundtrip;
    Alcotest.test_case "msg: validation" `Quick test_msg_validation;
    Alcotest.test_case "ring: FIFO + full" `Quick test_ring_fifo;
    Alcotest.test_case "ring: power of two" `Quick test_ring_power_of_two;
    Alcotest.test_case "bufpool: alloc/free" `Quick test_bufpool_alloc_free;
    Alcotest.test_case "bufpool: exhaustion" `Quick test_bufpool_exhaustion;
    Alcotest.test_case "bufpool: validation + rw" `Quick test_bufpool_validation;
    Alcotest.test_case "bufpool: requests spread over the IOTLB sets" `Quick
      test_bufpool_request_spread;
    Alcotest.test_case "uchan: sync upcall" `Quick test_uchan_sync_upcall;
    Alcotest.test_case "uchan: hang detection" `Quick test_uchan_hang_detection;
    Alcotest.test_case "uchan: interruptible (Ctrl-C)" `Quick test_uchan_interruptible;
    Alcotest.test_case "uchan: close unblocks" `Quick test_uchan_close_unblocks;
    Alcotest.test_case "uchan: downcalls + batching order" `Quick test_uchan_downcall;
    Alcotest.test_case "uchan: corrupt batch frame contained" `Quick
      test_uchan_batch_corrupt_frame;
    Alcotest.test_case "uchan: try_asend bounded" `Quick test_uchan_try_asend_full;
    Alcotest.test_case "uchan: a sync downcall runs in its sender's entry" `Quick
      test_uchan_sync_in_own_entry;
    Alcotest.test_case "uchan: a kill stops a refilled drain within one handler" `Quick
      test_uchan_kill_bounds_drain ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
