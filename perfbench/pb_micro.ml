(* Wall-clock micro-timings of the system's hot public functions, and the
   cost of the check layer.  Each kernel is timed in batches of about
   [batch_s] seconds after one warm-up batch; the result is the median
   batch's cost per operation. *)

open Pb_util
module S = Pb_sut

let batch_s = 0.02
let batches = 7

let time_per_op f =
  (* Size the batch on a probe run, then warm up once. *)
  let probe = 1_000 in
  let t0 = wall () in
  ignore (f probe : int);
  let dt = max 1e-6 (wall () -. t0) in
  let n = max probe (int_of_float (float_of_int probe *. batch_s /. dt)) in
  ignore (f n : int);
  let samples =
    List.init batches (fun _ ->
        let t0 = wall () in
        let done_ = f n in
        (wall () -. t0) *. 1e9 /. float_of_int done_)
  in
  median_float samples

(* The check layer: one sud-check random exploration (FIFO baseline
   included) of each supervised mini soak, from a fixed root seed.  A
   schedule runs for up to two seconds, so each is timed once; event
   and choice-point counts are exact.  Returns the exact counts, the
   wall-clock costs and the failed checks. *)
let explore_plan = [ ("mini-soak", 3); ("mini-blk-soak", 1) ]
let explore_root_seed = S.derive ~root:1L "perfbench:explore"

let check_layer () =
  let failures = ref [] and points = ref 0 and runs = ref 0 in
  let per_scenario =
    List.map
      (fun (scenario, budget) ->
         let w0 = ref 0.0 and wall_ns = ref 0.0 and steps = ref 0 in
         let r =
           S.explore ~scenario ~root_seed:explore_root_seed ~budget
             ~before:(fun () -> w0 := wall ())
             ~after:(fun n ->
                 wall_ns := !wall_ns +. ((wall () -. !w0) *. 1e9);
                 steps := !steps + n)
         in
         if not r.S.ex_fifo_clean then
           failures := (scenario ^ ": the FIFO baseline failed") :: !failures
         else if not r.S.ex_clean then
           failures := (scenario ^ ": exploration found a failing schedule") :: !failures;
         points := !points + r.S.ex_points;
         runs := !runs + r.S.ex_runs;
         let per v = v /. float_of_int r.S.ex_runs in
         ( ("check.events_per_schedule." ^ scenario, per (float_of_int !steps)),
           ("check.wall_ms_per_schedule." ^ scenario, per !wall_ns /. 1e6) ))
      explore_plan
  in
  ( ("sim.choice_points_per_schedule", float_of_int !points /. float_of_int !runs)
    :: List.map fst per_scenario,
    List.map snd per_scenario,
    List.rev !failures )

let run () =
  let engine_fifo = time_per_op (S.engine_events ~picker:false) in
  let engine_picker = time_per_op (S.engine_events ~picker:true) in
  let fiber_wake = time_per_op S.fiber_wakes in
  let cpu_consume = time_per_op S.cpu_consumes in
  let ring = time_per_op S.ring_push_pops in
  let batch = time_per_op S.batch_marshals in
  let conformance = time_per_op S.conformance_checks in
  let iotlb = time_per_op S.iotlb_hits in
  let phys = time_per_op S.phys_mem_rws in
  let csum = time_per_op S.copy_and_checksums in
  (* The registry hash walks every live metric, so time it over a
     realistic registry: the net-stream rig's. *)
  let rig = S.net_rig ~rate_bps:10_000_000_000 ~dut_cores:4 ~peer_cores:16 ~queues:4 ~peer_queues:8 () in
  let snapshot =
    median_float
      (List.init batches (fun _ ->
           let t0 = wall () in
           ignore (S.snapshot_hashes 1 : int);
           (wall () -. t0) *. 1e9))
  in
  ignore (Sys.opaque_identity rig : S.net);
  let exact, check_wall, failures = check_layer () in
  ( exact,
    check_wall
    @ [ ("sim.engine_fifo_event_ns", engine_fifo);
        ("sim.engine_picker_event_ns", engine_picker);
        ("sim.fiber_wake_ns", fiber_wake);
        ("sim.cpu_consume_ns", cpu_consume);
        ("uchan.ring_push_pop_ns", ring);
        ("uchan.batch_marshal_ns", batch);
        ("uchan.conformance_ns", conformance);
        ("hw.iotlb_hit_ns", iotlb);
        ("hw.phys_mem_rw_1448_ns", phys);
        ("kernel.copy_and_checksum_1448_ns", csum);
        ("check.snapshot_hash_ms", snapshot /. 1e6) ],
    failures )
