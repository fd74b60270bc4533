(* Administrative operations behind sudctl.  See ctl.mli. *)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let state_name = function
  | Supervisor.Running -> "running"
  | Supervisor.Recovering -> "recovering"
  | Supervisor.Quarantined -> "quarantined"
  | Supervisor.Stopped -> "stopped"

(* sudctl blk status *)

type blk_status = {
  bs_name : string;
  bs_capacity_sectors : int;
  bs_state : string;
  bs_restarts : int;
  bs_detections : int;
  bs_inflight : int;
  bs_retained : int;
  bs_cache_hits : int;
  bs_cache_misses : int;
  bs_merges : int;
  bs_flush_barriers : int;
  bs_qp_summary : string;
  bs_inflight_summary : string;
  bs_writes_ok : int;
  bs_reads_ok : int;
  bs_io_errors : int;
}

let probe_pages = 32

let blk_status () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:2_000 w.Fault_inject.bw_k (fun () ->
      let sv =
        ok "supervise nvme"
          (Supervisor.start_blk w.Fault_inject.bw_k w.Fault_inject.bw_sp
             ~policy:(Fault_inject.soak_policy ~max_restarts:10)
             ~bdf:w.Fault_inject.bw_bdf Fault_inject.honest_blk_factory)
      in
      let eng = w.Fault_inject.bw_eng in
      let registered () =
        match Supervisor.blkdev sv with
        | Some bd when Blkdev.capacity bd > 0 -> Some bd
        | _ -> None
      in
      (* Up to 1 s, in 100 us steps. *)
      if not (Fiber.poll eng ~every_ns:100_000 ~budget:10_000 (fun () -> registered () <> None))
      then failwith "blk status: no block device registered";
      let bd = Option.get (registered ()) in
      (* A short synchronous probe so every layer has something to
         count: dirty a few pages, fsync them out, read them back, and
         finish with one write-through. *)
      let writes = ref 0 and reads = ref 0 and errors = ref 0 in
      let page i = Bytes.make Blkdev.page_size (Char.chr (0x40 + (i land 0x1f))) in
      for i = 0 to probe_pages - 1 do
        match Blkdev.write bd ~lba:(i * Blkdev.page_sectors) (page i) () with
        | Ok () -> incr writes
        | Error _ -> incr errors
      done;
      (match Blkdev.fsync bd () with Ok () -> () | Error _ -> incr errors);
      for i = 0 to probe_pages - 1 do
        match Blkdev.read bd ~lba:(i * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors () with
        | Ok data when data = page i -> incr reads
        | Ok _ | Error _ -> incr errors
      done;
      (match Blkdev.write_fua bd ~lba:0 (page 0) () with
       | Ok () -> incr writes
       | Error _ -> incr errors);
      let st = Supervisor.stats sv in
      let inflight, retained, inflight_summary =
        match Supervisor.current_blk sv with
        | Some s ->
          let p = Driver_host.proxy s in
          (Proxy_blk.inflight p, Proxy_blk.retained p, Proxy_blk.inflight_summary p)
        | None -> (0, 0, "(no live driver generation)")
      in
      let hits, misses, merges, barriers = Blkdev.metrics bd in
      let r =
        { bs_name = Blkdev.name bd;
          bs_capacity_sectors = Blkdev.capacity bd;
          bs_state = state_name st.Supervisor.st_state;
          bs_restarts = st.Supervisor.st_restarts;
          bs_detections = st.Supervisor.st_detections;
          bs_inflight = inflight;
          bs_retained = retained;
          bs_cache_hits = hits;
          bs_cache_misses = misses;
          bs_merges = merges;
          bs_flush_barriers = barriers;
          bs_qp_summary = Nvme_dev.debug_qp_summary w.Fault_inject.bw_nvme;
          bs_inflight_summary = inflight_summary;
          bs_writes_ok = !writes;
          bs_reads_ok = !reads;
          bs_io_errors = !errors }
      in
      Supervisor.stop sv;
      r)

(* sudctl trace smoke *)

type trace_report = {
  ts_fault : string;
  ts_detect_us : int;
  ts_outage_us : int;
  ts_exported : int;
  ts_parsed : int;
  ts_chain : (string * string) list;
  ts_chain_found : bool;
  ts_out : string;
}

let trace_chain =
  [ ("uchan", "rpc"); ("iommu", "fault"); ("sup", "detect"); ("sup", "kill");
    ("sup", "restart") ]

let trace_smoke ~out =
  (* Size the ring for the whole run: the interesting spans happen in the
     first couple of simulated milliseconds and must survive the seconds
     of post-recovery traffic that follow. *)
  Sud_obs.Trace.set_capacity (1 lsl 19);
  Sud_obs.Trace.set_enabled true;
  let r = Fault_inject.(measure_recovery Dma_violation) in
  Sud_obs.Trace.set_enabled false;
  let dir = Filename.dirname out in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let n = Sud_obs.Trace.write_jsonl ~path:out in
  let spans =
    match Sud_obs.Trace.read_jsonl ~path:out with
    | Ok spans -> spans
    | Error e -> failwith ("trace smoke: " ^ e)
  in
  { ts_fault = r.Fault_inject.rs_fault;
    ts_detect_us = r.Fault_inject.rs_detect_ns / 1000;
    ts_outage_us = r.Fault_inject.rs_outage_ns / 1000;
    ts_exported = n;
    ts_parsed = List.length spans;
    ts_chain = trace_chain;
    ts_chain_found = List.length spans = n && Sud_obs.Trace.chain_exists spans trace_chain;
    ts_out = out }

(* sudctl driver {list,status,upgrade,failover} *)

let standby_name st = Standby.status_name st

type driver_row = {
  dv_name : string;
  dv_class : string;
  dv_state : string;
  dv_standby : string;
  dv_restarts : int;
  dv_upgrades : int;
}

let warm = Fault_inject.warm_policy ~max_restarts:10

let row ~cls sv =
  { dv_name = Supervisor.name sv;
    dv_class = cls;
    dv_state = state_name (Supervisor.state sv);
    dv_standby = standby_name (Supervisor.standby_status sv);
    dv_restarts = (Supervisor.stats sv).Supervisor.st_restarts;
    dv_upgrades = Supervisor.upgrades sv }

let driver_list () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:5_000 w.Fault_inject.bw_k (fun () ->
      let k = w.Fault_inject.bw_k in
      let eng = w.Fault_inject.bw_eng in
      (* One device of each class behind the same class-indexed launch
         path: the listing is the API's sales pitch. *)
      let medium = Net_medium.create eng () in
      let nic =
        E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "52:54:00:00:00:01") ~medium ()
      in
      let nbdf = Kernel.attach_pci k (E1000_dev.device nic) in
      let sv_net =
        ok "supervise e1000"
          (Supervisor.start k w.Fault_inject.bw_sp ~policy:warm ~bdf:nbdf
             (fun ~attempt:_ -> E1000.driver))
      in
      let sv_blk =
        ok "supervise nvme"
          (Supervisor.start_blk k w.Fault_inject.bw_sp ~policy:warm
             ~bdf:w.Fault_inject.bw_bdf Fault_inject.honest_blk_factory)
      in
      (* Give both watchdogs a tick so the standbys park. *)
      ignore (Fault_inject.wait_standby_ready ~eng sv_net ~budget_ms:2_000 : bool);
      ignore (Fault_inject.wait_standby_ready ~eng sv_blk ~budget_ms:2_000 : bool);
      let rows = [ row ~cls:"net" sv_net; row ~cls:"blk" sv_blk ] in
      Supervisor.stop sv_net;
      Supervisor.stop sv_blk;
      rows)

type driver_status = {
  ds_name : string;
  ds_class : string;
  ds_state : string;
  ds_sysfs_state : string;
  ds_standby : string;
  ds_warmed : int;  (** standby generations parked Ready so far *)
  ds_poisoned : int;  (** standbys discarded as poisoned *)
  ds_restarts : int;
  ds_warm_swaps : int;
  ds_upgrades : int;
  ds_detections : int;
}

let sysfs_state k bdf =
  match Sysfs.find_bdf k.Kernel.sysfs bdf with
  | Some e -> Option.value ~default:"" (Sysfs.attr e "sud_state")
  | None -> ""

let driver_status () =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:5_000 w.Fault_inject.bw_k (fun () ->
      let k = w.Fault_inject.bw_k in
      let sv =
        ok "supervise nvme"
          (Supervisor.start_blk k w.Fault_inject.bw_sp ~policy:warm
             ~bdf:w.Fault_inject.bw_bdf Fault_inject.honest_blk_factory)
      in
      ignore
        (Fault_inject.wait_standby_ready ~eng:w.Fault_inject.bw_eng sv ~budget_ms:2_000
         : bool);
      let st = Supervisor.stats sv in
      let warmed, poisoned = Supervisor.standby_stats sv in
      let r =
        { ds_name = Supervisor.name sv;
          ds_class = "blk";
          ds_state = state_name st.Supervisor.st_state;
          ds_sysfs_state = sysfs_state k w.Fault_inject.bw_bdf;
          ds_standby = standby_name (Supervisor.standby_status sv);
          ds_warmed = warmed;
          ds_poisoned = poisoned;
          ds_restarts = st.Supervisor.st_restarts;
          ds_warm_swaps = st.Supervisor.st_warm_swaps;
          ds_upgrades = st.Supervisor.st_upgrades;
          ds_detections = st.Supervisor.st_detections }
      in
      Supervisor.stop sv;
      r)

type swap_report = {
  sw_op : string;  (** ["upgrade"] or ["failover"] *)
  sw_ok : bool;
  sw_error : string option;
  sw_outage_us : int;  (** from the op's [Driver_restarted] event *)
  sw_warm_swaps : int;
  sw_upgrades : int;
  sw_pages_intact : int;  (** pre-swap fsynced pages that read back intact *)
  sw_io_errors : int;
  sw_state : string;
  sw_sysfs_state : string;
}

(* Shared shape of `driver upgrade` and `driver failover`: dirty and
   fsync a working set, swap generations, and prove the acked data and
   the datapath both survived. *)
let swap_probe ~op doit =
  let w = Fault_inject.make_blk_world () in
  Kernel.run ~max_ms:10_000 w.Fault_inject.bw_k (fun () ->
      let k = w.Fault_inject.bw_k in
      let eng = w.Fault_inject.bw_eng in
      let sv =
        ok "supervise nvme"
          (Supervisor.start_blk k w.Fault_inject.bw_sp ~policy:warm
             ~bdf:w.Fault_inject.bw_bdf Fault_inject.honest_blk_factory)
      in
      let bd =
        match Supervisor.blkdev sv with
        | Some bd -> bd
        | None -> failwith (op ^ ": no block device registered")
      in
      let errors = ref 0 in
      let page i = Bytes.make Blkdev.page_size (Char.chr (0x40 + (i land 0x1f))) in
      for i = 0 to probe_pages - 1 do
        match Blkdev.write bd ~lba:(i * Blkdev.page_sectors) (page i) () with
        | Ok () -> ()
        | Error _ -> incr errors
      done;
      (match Blkdev.fsync bd () with Ok () -> () | Error _ -> incr errors);
      ignore (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000 : bool);
      let outage = ref 0 in
      Supervisor.on_event sv (function
          | Supervisor.Driver_restarted { outage_ns; _ } when !outage = 0 ->
            outage := outage_ns
          | _ -> ());
      let result = doit sv in
      ignore (Fault_inject.wait_running ~eng sv ~budget_ms:5_000 : bool);
      let intact = ref 0 in
      for i = 0 to probe_pages - 1 do
        match Blkdev.read bd ~lba:(i * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors () with
        | Ok data when data = page i -> incr intact
        | Ok _ | Error _ -> incr errors
      done;
      (match Blkdev.write_fua bd ~lba:0 (page 0) () with
       | Ok () -> ()
       | Error _ -> incr errors);
      let st = Supervisor.stats sv in
      let r =
        { sw_op = op;
          sw_ok = (match result with Ok () -> true | Error _ -> false);
          sw_error = (match result with Ok () -> None | Error e -> Some e);
          sw_outage_us = !outage / 1_000;
          sw_warm_swaps = st.Supervisor.st_warm_swaps;
          sw_upgrades = st.Supervisor.st_upgrades;
          sw_pages_intact = !intact;
          sw_io_errors = !errors;
          sw_state = state_name st.Supervisor.st_state;
          sw_sysfs_state = sysfs_state k w.Fault_inject.bw_bdf }
      in
      Supervisor.stop sv;
      r)

let driver_upgrade () = swap_probe ~op:"upgrade" Supervisor.upgrade
let driver_failover () = swap_probe ~op:"failover" Supervisor.failover

(* sudctl check {explore,replay,shrink} *)

let parse_mode = function
  | "random" -> Ok `Random
  | "bounded" -> Ok `Bounded
  | m -> Error (Printf.sprintf "unknown mode %S (expected random or bounded)" m)

let check_scenarios () =
  List.map
    (fun (sc : Scenario.t) -> (sc.Scenario.sc_name, sc.sc_descr, sc.sc_canary))
    Check.scenarios

let check_explore ~scenario ~mode ~budget ~root_seed () =
  match parse_mode mode with
  | Error e -> Error e
  | Ok mode ->
    (match Check.find_scenario scenario with
     | None -> Error (Printf.sprintf "unknown scenario %S (try `sudctl check list`)" scenario)
     | Some sc -> Ok (Check.hunt ~mode ~budget sc ~root_seed))

let check_replay ~file ~times () = Check.replay_file ~file ~times

let check_shrink ~file () =
  match Sched.load file with
  | Error e -> Error e
  | Ok f ->
    (match Check.find_scenario f.Sched.f_scenario with
     | None -> Error (Printf.sprintf "%s: unknown scenario %S" file f.Sched.f_scenario)
     | Some sc ->
       let out = Filename.remove_extension (Filename.remove_extension file) ^ ".min.sched.jsonl" in
       let sh, _ =
         Check.shrink_counterexample ~save:out sc ~seed:f.f_seed f.f_decisions
       in
       Ok sh)
