(* The observability layer: metrics registry semantics, trace-ring
   accounting under random span storms, JSONL round-trips, causal chain
   queries, the sysfs nodes, and the deprecated-shim equivalences. *)

module M = Sud_obs.Metrics
module T = Sud_obs.Trace

(* ---- metrics registry ---- *)

let test_counter_gauge_histogram () =
  let reg = M.create_registry () in
  let c = M.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.get c);
  let cell = ref 17 in
  let g = M.gauge ~registry:reg ~subsystem:"t" ~name:"g" (fun () -> !cell) in
  Alcotest.(check int) "gauge" 17 (M.gauge_value g);
  cell := 3;
  Alcotest.(check int) "gauge follows" 3 (M.gauge_value g);
  let h = M.histogram ~registry:reg ~subsystem:"t" ~name:"h" () in
  List.iter (M.observe h) [ 1; 2; 3; 1000; 1_000_000 ];
  Alcotest.(check int) "hist count" 5 (M.hist_count h);
  Alcotest.(check int) "hist sum" 1_001_006 (M.hist_sum h);
  let snap = M.snapshot ~registry:reg () in
  Alcotest.(check int) "one subsystem" 1 (List.length snap);
  Alcotest.(check int) "three samples" 3
    (List.length (List.hd snap).M.g_samples);
  (* keep the handles alive past the snapshot: the registry holds them
     weakly on purpose *)
  ignore (M.get c + M.gauge_value g + M.hist_count h : int)

let test_replace_on_same_key () =
  let reg = M.create_registry () in
  let c1 = M.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  M.add c1 7;
  let c2 = M.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  let snap = M.snapshot ~registry:reg () in
  Alcotest.(check int) "still one sample" 1
    (List.length (List.hd snap).M.g_samples);
  (match (List.hd (List.hd snap).M.g_samples).M.s_value with
   | M.Counter v -> Alcotest.(check int) "newest instance wins" 0 v
   | _ -> Alcotest.fail "expected counter");
  ignore (M.get c1 + M.get c2 : int)

let test_registry_does_not_root_metrics () =
  let reg = M.create_registry () in
  let make () =
    let c = M.counter ~registry:reg ~subsystem:"ephemeral" ~name:"c" () in
    M.incr c
  in
  make ();
  Gc.full_major ();
  Gc.full_major ();
  let snap = M.snapshot ~registry:reg () in
  Alcotest.(check bool) "dead subsystem pruned" true
    (not (List.exists (fun g -> g.M.g_subsystem = "ephemeral") snap))

let hist_bucket_sum_test =
  QCheck.Test.make ~name:"histogram: bucket sums = observation count" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 1_000_000))
    (fun vs ->
       let reg = M.create_registry () in
       let h = M.histogram ~registry:reg ~subsystem:"t" ~name:"h" () in
       List.iter (M.observe h) vs;
       let bucket_total = Array.fold_left ( + ) 0 (M.hist_buckets h) in
       bucket_total = List.length vs
       && M.hist_count h = List.length vs
       && M.hist_sum h = List.fold_left ( + ) 0 vs)

(* The snapshot's JSON reparses to the same tree; a label value that
   needs quoting stays inside its key. *)
let test_metrics_json_roundtrip () =
  let reg = M.create_registry () in
  let c = M.counter ~registry:reg ~labels:[ ("dev", "eth\"0") ] ~subsystem:"t" ~name:"c" () in
  M.add c 3;
  let g = M.gauge ~registry:reg ~subsystem:"t" ~name:"g" (fun () -> -5) in
  let h = M.histogram ~registry:reg ~subsystem:"u" ~name:"h" () in
  List.iter (M.observe h) [ 1; 3; 1000 ];
  let j = M.to_json (M.snapshot ~registry:reg ()) in
  Alcotest.(check bool) "counter under its labelled key" true
    (Json.path j [ "t"; "c{dev=eth\"0}"; "counter" ] = Some (Json.Int 3));
  Alcotest.(check bool) "histogram buckets" true
    (Json.path j [ "u"; "h"; "histogram"; "log2_buckets" ]
     = Some (Json.Obj [ ("0", Json.Int 1); ("1", Json.Int 1); ("9", Json.Int 1) ]));
  (match Json.of_string (Json.to_string j) with
   | Ok j' -> Alcotest.(check bool) "reparses equal" true (j = j')
   | Error e -> Alcotest.failf "reparse: %s" e);
  ignore (M.get c + M.gauge_value g + M.hist_count h : int)

(* ---- trace ring ---- *)

let with_trace f =
  T.set_capacity 256;
  T.set_enabled true;
  Fun.protect ~finally:(fun () ->
      T.set_enabled false;
      T.set_capacity 16384)
    f

let test_trace_disabled_is_free () =
  T.set_enabled false;
  T.reset ();
  let id = T.emit ~cat:"t" ~name:"x" () in
  Alcotest.(check int) "disabled emit returns 0" 0 id;
  Alcotest.(check int) "nothing recorded" 0 (T.emitted ())

(* ---- the disabled tracer on the hot paths, by exact allocation ---- *)

(* Minor words per call of [step], exact: the words of 2n calls minus
   the words of n, so the warm-up and the probe's own allocation cancel.
   Allocation in one domain is deterministic. *)
let words_per_op step =
  let n = 1_000 in
  let words m =
    let w0 = Gc.minor_words () in
    for _ = 1 to m do step () done;
    Gc.minor_words () -. w0
  in
  step ();
  (words (2 * n) -. words n) /. float_of_int n

(* Async kernel->driver upcalls, each delivered to a driver fiber parked
   in [Uchan.wait] (the sender sleeps until the driver has parked
   again): minor words per upcall over the second n of 2n. *)
let upcall_words () =
  let n = 200 in
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let chan = Uchan.create k ~driver_label:"words" () in
  let drv = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
  let delivered = ref 0 in
  ignore
    (Process.spawn_fiber drv (fun () ->
         while Result.is_ok (Uchan.wait chan) do incr delivered done)
     : Fiber.t);
  let m = Msg.make ~kind:Proxy_proto.up_interrupt () in
  let marks = Array.make 2 0.0 in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) (fun () ->
         for i = 1 to 2 * n do
           if i = n + 1 then marks.(0) <- Gc.minor_words ();
           ignore (Uchan.transfer chan ~from:`Kernel Uchan.Async m : (unit, Uchan.error) result);
           ignore (Fiber.sleep eng 10_000 : Fiber.wake)
         done;
         marks.(1) <- Gc.minor_words ();
         Uchan.close chan)
     : Fiber.t);
  Engine.run ~max_time:1_000_000_000 eng;
  Alcotest.(check int) "every upcall delivered" (2 * n) !delivered;
  (marks.(1) -. marks.(0)) /. float_of_int n

(* A disabled tracer adds nothing to the datapath, checked by exact
   counts rather than wall-clock time: with tracing off each hot path
   allocates exactly its pinned minor words per op and records no span,
   and the same upcall loop traced allocates more, so the probe sees
   tracer work.  The ring's 2 words are [pop_inplace]'s [Some]; the
   IOTLB hit's 6 are the [`Phys] and the pair [translate_info] returns.
   A slowdown that allocates nothing passes here.  The pins hold for
   OCaml 5.1.1 without flambda; another compiler may allocate
   differently. *)
let test_trace_disabled_words () =
  let ring = Ring.create ~slots:256 in
  let io = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
  let dom = Iommu.attach io ~source:7 in
  Iommu.map io dom ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  T.set_enabled false;
  T.reset ();
  let ring_push_pop () =
    ignore (Ring.push_inplace ring ignore : bool);
    ignore (Ring.pop_inplace ring Bytes.length : int option)
  in
  let iotlb_hit () =
    ignore
      (Iommu.translate io ~source:7 ~addr:0x10040 ~dir:Bus.Dma_read
       : [ `Phys of int | `Msi | `Fault of Bus.fault ])
  in
  let untraced = upcall_words () in
  Alcotest.(check (list (pair string (float 0.))))
    "minor words per op, tracing off"
    [ ("ring push+pop in place", 2.); ("IOTLB hit", 6.); ("async upcall to a parked driver", 471.) ]
    [ ("ring push+pop in place", words_per_op ring_push_pop);
      ("IOTLB hit", words_per_op iotlb_hit);
      ("async upcall to a parked driver", untraced) ];
  Alcotest.(check int) "no span recorded with tracing off" 0 (T.emitted ());
  let traced = with_trace upcall_words in
  Alcotest.(check bool)
    (Printf.sprintf "traced upcall allocates more (%.0f > %.0f words)" traced untraced)
    true (traced > untraced)

let trace_accounting_test =
  QCheck.Test.make ~name:"trace: emitted = retained + dropped under storms"
    ~count:100
    QCheck.(pair (int_range 1 500) (int_range 0 2000))
    (fun (cap, n) ->
       T.set_capacity cap;
       T.set_enabled true;
       Fun.protect ~finally:(fun () ->
           T.set_enabled false;
           T.set_capacity 16384)
         (fun () ->
            for i = 1 to n do
              ignore (T.emit ~parent:(i / 2) ~cat:"storm" ~name:"s" () : int)
            done;
            T.emitted () = n
            && T.emitted () = T.retained () + T.dropped ()
            && T.retained () = min n cap
            && List.length (T.spans ()) = T.retained ()
            (* the retained window is the newest spans, ids ascending *)
            && (match T.spans () with
                | [] -> n = 0
                | first :: _ as l ->
                  first.T.sp_id = n - T.retained () + 1
                  && (List.nth l (T.retained () - 1)).T.sp_id = n)))

(* Export a trace and read it back. *)
let read_back path =
  let n = T.write_jsonl ~path in
  Alcotest.(check int) "every retained span written" (T.retained ()) n;
  match T.read_jsonl ~path with
  | Ok spans -> spans
  | Error e -> Alcotest.failf "read_jsonl: %s" e

let test_jsonl_roundtrip () =
  with_trace (fun () ->
      let a = T.emit ~cat:"uchan" ~name:"rpc" ~attrs:[ ("seq", "1"); ("odd", "a\"b\\c\n") ] () in
      let b = T.emit ~parent:a ~dur_ns:42 ~cat:"iommu" ~name:"fault" () in
      ignore (T.emit ~parent:b ~cat:"sup" ~name:"detect" () : int);
      let parsed = read_back "obs_roundtrip.jsonl" in
      Alcotest.(check int) "all parse" 3 (List.length parsed);
      let orig = T.spans () in
      List.iter2
        (fun o p ->
           Alcotest.(check int) "id" o.T.sp_id p.T.sp_id;
           Alcotest.(check int) "parent" o.T.sp_parent p.T.sp_parent;
           Alcotest.(check int) "dur" o.T.sp_dur p.T.sp_dur;
           Alcotest.(check string) "cat" o.T.sp_cat p.T.sp_cat;
           Alcotest.(check string) "name" o.T.sp_name p.T.sp_name;
           Alcotest.(check bool) "attrs" true (o.T.sp_attrs = p.T.sp_attrs))
        orig parsed)

(* Timestamps and every byte survive the file: control bytes the JSON
   escapes as \u00XX and a byte above 0x7F that it keeps verbatim. *)
let test_jsonl_keeps_ts_and_bytes () =
  let clock = ref 0 in
  T.set_clock (fun () -> !clock);
  Fun.protect ~finally:(fun () -> T.set_clock (fun () -> 0)) (fun () ->
      with_trace (fun () ->
          clock := 1_234_567_890_123;
          let a =
            T.emit ~cat:"uchan" ~name:"rpc"
              ~attrs:[ ("tab", "a\tb"); ("cr", "c\rd"); ("ctrl", "\001"); ("high", "\xff\xfe") ]
              ()
          in
          clock := 1_234_567_890_456;
          ignore (T.emit ~parent:a ~dur_ns:7 ~cat:"k\tv" ~name:"\xff" () : int);
          let orig = T.spans () in
          Alcotest.(check (list int)) "clock stamped" [ 1_234_567_890_123; 1_234_567_890_456 ]
            (List.map (fun sp -> sp.T.sp_ts) orig);
          Alcotest.(check bool) "read_jsonl returns the spans" true
            (read_back "obs_bytes.jsonl" = orig)))

let test_chain_exists () =
  with_trace (fun () ->
      let rpc = T.emit ~cat:"uchan" ~name:"rpc" () in
      let flt = T.emit ~parent:rpc ~cat:"iommu" ~name:"fault" () in
      let det = T.emit ~parent:flt ~cat:"sup" ~name:"detect" () in
      let kil = T.emit ~parent:det ~cat:"sup" ~name:"kill" () in
      ignore (T.emit ~parent:kil ~cat:"sup" ~name:"restart" () : int);
      (* an unrelated fault with no rpc parent must not satisfy the chain *)
      ignore (T.emit ~cat:"iommu" ~name:"fault" () : int);
      let spans = T.spans () in
      Alcotest.(check bool) "full chain found" true
        (T.chain_exists spans
           [ ("uchan", "rpc"); ("iommu", "fault"); ("sup", "detect");
             ("sup", "kill"); ("sup", "restart") ]);
      Alcotest.(check bool) "absent link rejected" false
        (T.chain_exists spans
           [ ("uchan", "rpc"); ("iommu", "fault"); ("sup", "quarantine") ]))

let test_remember_recall_current () =
  with_trace (fun () ->
      T.remember "k" 7;
      Alcotest.(check int) "recall" 7 (T.recall "k");
      Alcotest.(check int) "unknown key" 0 (T.recall "nope");
      Alcotest.(check int) "no ambient current" 0 (T.current ());
      let seen = T.with_current 9 (fun () -> T.current ()) in
      Alcotest.(check int) "ambient inside" 9 seen;
      Alcotest.(check int) "restored outside" 0 (T.current ()))

(* ---- boundary instrumentation: spans from a real world ---- *)

let test_sysfs_metrics_node () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  (match Sysfs.read_file k.Kernel.sysfs ~path:"/sys/kernel/sud_metrics" with
   | Some _ -> ()
   | None -> Alcotest.fail "sud_metrics node missing");
  (match Sysfs.read_file k.Kernel.sysfs ~path:"/sys/kernel/sud_metrics.json" with
   | Some body ->
     Alcotest.(check bool) "json-shaped" true
       (String.length body > 0 && body.[0] = '{')
   | None -> Alcotest.fail "sud_metrics.json node missing");
  Alcotest.(check (option string)) "unknown path" None
    (Sysfs.read_file k.Kernel.sysfs ~path:"/sys/kernel/nope")

(* The admin-facing contract behind `sudctl metrics`: with a multiqueue
   SUD driver running, the sysfs registry dump carries per-queue labels
   for every queue — uchan ring counters and netdev backlog counters
   alike — so operators can see which queue a storm or a backlog burst
   hit. *)
let test_metrics_per_queue_labels () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic =
    E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "52:54:00:00:00:0a") ~medium ~queues:4 ()
  in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let body = ref "" in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"main" (fun () ->
         let sp = Safe_pci.init k in
         (match Driver_host.launch k sp (Driver_host.net ()) ~bdf ~name:"eth0" E1000.driver with
          | Ok _ -> ()
          | Error e -> failwith e);
         match Sysfs.read_file k.Kernel.sysfs ~path:"/sys/kernel/sud_metrics" with
         | Some b -> body := b
         | None -> failwith "sud_metrics node missing")
     : Fiber.t);
  Engine.run ~max_time:2_000_000_000 eng;
  let contains needle =
    let n = String.length needle and hs = !body in
    let rec go i =
      i + n <= String.length hs && (String.sub hs i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "queue_upcalls{chan=eth0,queue=0}";
      "queue_upcalls{chan=eth0,queue=3}";
      "queue_downcalls{chan=eth0,queue=3}";
      "queue_dropped{chan=eth0,queue=3}";
      "queue_backlog_offered{dev=eth0,queue=3}";
      "queue_backlog_replayed{dev=eth0,queue=3}" ]

let suite =
  [ Alcotest.test_case "metrics: counter/gauge/histogram" `Quick
      test_counter_gauge_histogram;
    Alcotest.test_case "metrics: replace on same key" `Quick test_replace_on_same_key;
    Alcotest.test_case "metrics: JSON snapshot reparses equal" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "metrics: registry holds weakly" `Quick
      test_registry_does_not_root_metrics;
    Alcotest.test_case "trace: disabled emit is free" `Quick test_trace_disabled_is_free;
    Alcotest.test_case "trace: disabled, hot paths pinned by words" `Quick
      test_trace_disabled_words;
    Alcotest.test_case "trace: jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "trace: jsonl keeps ts and raw bytes" `Quick
      test_jsonl_keeps_ts_and_bytes;
    Alcotest.test_case "trace: chain_exists" `Quick test_chain_exists;
    Alcotest.test_case "trace: remember/recall/current" `Quick
      test_remember_recall_current;
    Alcotest.test_case "sysfs: /sys/kernel/sud_metrics" `Quick test_sysfs_metrics_node;
    Alcotest.test_case "sudctl metrics: per-queue labels" `Quick
      test_metrics_per_queue_labels ]
  @ List.map QCheck_alcotest.to_alcotest [ hist_bucket_sum_test; trace_accounting_test ]
