(* The full evaluation harness: regenerates every table and figure from the
   paper's evaluation (Figures 5-9 and the §5.2 security results), runs the
   §6 ablations and every beyond-paper gate.  A run is exactly one mode of
   the [modes] table at the bottom of this file:

     dune exec bench/main.exe                    # every figure and table (a report)
     dune exec bench/main.exe -- quick           # the same without the slow netperf sweep
     dune exec bench/main.exe -- soak            # supervision soak only (make soak)
     dune exec bench/main.exe -- gates           # every gate, one process (make gates)

   Every gate is a row: a name, the measured value, a bound, and the key of
   bench/baseline.json the value was computed against, if any.  A mode's
   verdict (and exit status) is the AND of its rows.  Every run writes its
   result (schema sud-bench/10: the mode's data, its gate rows and the
   verdict) to traces/bench_<mode>.json; no run writes a tracked file, and
   a baseline changes only by editing bench/baseline.json.  Results,
   the baseline and the metrics snapshot the report embeds are all Json
   values, the repository's one JSON codec.

   The soak run enables tracing (64k-span ring), exports
   traces/soak_trace.jsonl, and fails unless every exported span reads
   back and the trace contains a complete uchan rpc -> iommu fault ->
   supervisor detect -> kill -> restart causal chain. *)

module J = Json

(* One root seed for every seeded bench harness: each entry point derives
   its sub-seed by tag (satellite of sud-check), so a red run is
   reproducible from the single root printed in the failure line. *)
let bench_root = Fault_inject.default_root
let bseed tag = Rng.derive ~root:bench_root tag

(* Per-fault-class recovery samples render the same way in every
   result. *)
let recovery_rows recovery =
  J.List
    (List.map
       (fun s ->
          J.Obj
            [ ("fault", J.Str s.Fault_inject.rs_fault);
              ("detect_ns", J.Int s.Fault_inject.rs_detect_ns);
              ("outage_ns", J.Int s.Fault_inject.rs_outage_ns) ])
       recovery)

let counts kvs = J.Obj (List.map (fun (k, n) -> (k, J.Int n)) kvs)
let strs vs = J.List (List.map (fun v -> J.Str v) vs)

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* ---- gates: one row per comparison, one frozen baseline ---- *)

(* Every earlier measurement a gate compares against lives in
   bench/baseline.json, one value per key, each beside the BENCH_N.json
   it was copied from.  Nothing writes that file, so no run can move
   another mode's verdict. *)
let baseline_path = "bench/baseline.json"
let baseline_doc = lazy (J.of_file baseline_path)

let baseline key =
  match Lazy.force baseline_doc with
  | Error e -> Error (Printf.sprintf "%s unreadable: %s" baseline_path e)
  | Ok doc ->
    (match Option.bind (J.path doc [ "values"; key; "value" ]) J.as_float with
     | Some v -> Ok v
     | None -> Error (Printf.sprintf "baseline key %s missing from %s" key baseline_path))

type cmp = Ge | Gt | Le | Lt | Eq

(* [value] holds iff it compares to [bound] under [cmp]; an [Error] value
   (an input that could not be read or measured) fails the row. *)
type gate = {
  name : string;
  value : (float, string) result;
  cmp : cmp;
  bound : float;
  base : string option;  (* the baseline key [value] was computed against *)
}

let gate name cmp bound v = { name; value = Ok v; cmp; bound; base = None }
let count name cmp bound n = gate name cmp (float_of_int bound) (float_of_int n)
let holds name b = count name Eq 1 (Bool.to_int b)

let vs_baseline name cmp bound key f =
  { name; value = Result.map f (baseline key); cmp; bound; base = Some key }

let passes g =
  match g.value with
  | Error _ -> false
  | Ok v ->
    (match g.cmp with
     | Ge -> v >= g.bound
     | Gt -> v > g.bound
     | Le -> v <= g.bound
     | Lt -> v < g.bound
     | Eq -> v = g.bound)

let cmp_str = function Ge -> ">=" | Gt -> ">" | Le -> "<=" | Lt -> "<" | Eq -> "=="
let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v

let print_gate g =
  let value, note =
    match g.value, g.base with
    | Error e, _ -> ("-", e)
    | Ok v, None -> (num v, "")
    | Ok v, Some k ->
      (num v, match baseline k with Ok b -> Printf.sprintf "vs %s = %g" k b | Error e -> e)
  in
  Printf.printf "%-4s %-44s %10s %s %s%s\n"
    (if passes g then "ok" else "FAIL")
    g.name value (cmp_str g.cmp) (num g.bound)
    (if note = "" then "" else "  " ^ note)

let gate_json g =
  J.Obj
    ([ ("name", J.Str g.name);
       ("value", match g.value with Ok v -> J.fnum v | Error _ -> J.Null);
       ("cmp", J.Str (cmp_str g.cmp));
       ("bound", J.fnum g.bound);
       ("baseline", match g.base with Some k -> J.Str k | None -> J.Null);
       ("pass", J.Bool (passes g)) ]
     @ match g.value with Error e -> [ ("error", J.Str e) ] | Ok _ -> [])

(* ---- Figure 5: lines of code per component ---- *)

let count_loc path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  with Sys_error _ -> None

let figure5 () =
  banner "Figure 5: lines of code to implement SUD (paper's numbers in parens)";
  let components =
    [ ("Safe PCI device access module", [ "lib/core/safe_pci.ml"; "lib/core/safe_pci.mli" ], 2800);
      ("Ethernet proxy driver", [ "lib/core/proxy_net.ml"; "lib/core/proxy_net.mli" ], 300);
      ("Wireless proxy driver", [ "lib/core/proxy_wifi.ml"; "lib/core/proxy_wifi.mli" ], 600);
      ("Audio card proxy driver", [ "lib/core/proxy_audio.ml"; "lib/core/proxy_audio.mli" ], 550);
      ("USB host proxy driver", [ "lib/core/proxy_usb.ml"; "lib/core/proxy_usb.mli" ], 0);
      ( "SUD-UML runtime",
        [ "lib/core/sud_uml.ml"; "lib/core/sud_uml.mli"; "lib/core/driver_api.ml";
          "lib/core/driver_api.mli"; "lib/core/driver_host.ml"; "lib/core/driver_host.mli";
          "lib/uchan/uchan.ml"; "lib/uchan/msg.ml"; "lib/uchan/ring.ml"; "lib/uchan/bufpool.ml" ],
        5000 ) ]
  in
  Printf.printf "%-34s %10s %14s\n" "Feature" "This repo" "Paper";
  List.iter
    (fun (name, files, paper) ->
       let mine =
         List.fold_left
           (fun acc f -> match count_loc f with Some n -> acc + n | None -> acc)
           0 files
       in
       Printf.printf "%-34s %10s %14d\n" name
         (if mine = 0 then "(n/a)" else string_of_int mine)
         paper)
    components;
  print_endline
    "(USB host proxy: 0 in the paper because the USB stack lives wholly inside\n\
     the driver process; ours surfaces block/input devices, hence nonzero.)"

(* ---- Figure 6: device files ---- *)

let figure6 () =
  banner "Figure 6: device files SUD exports per PCI device";
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  Safe_pci.register_device sp bdf;
  List.iter print_endline (Safe_pci.device_files sp bdf)

(* ---- Figure 7: upcall/downcall sample ---- *)

let figure7 () =
  banner "Figure 7: a sample of SUD upcalls and downcalls";
  Printf.printf "%-22s %-10s %s\n" "Call" "Direction" "Description";
  List.iter
    (fun (name, dir, desc) -> Printf.printf "%-22s %-10s %s\n" name dir desc)
    Proxy_proto.figure7_sample;
  Printf.printf "\nFull protocol implemented by this repo (opcode: name):\n";
  List.iter (fun (op, name) -> Printf.printf "  %3d: %s\n" op name) Proxy_proto.opcodes

(* ---- Figure 8: netperf ---- *)

let paper_figure8 =
  [ ("TCP_STREAM", "Kernel driver", "941 Mbits/sec", "12%");
    ("TCP_STREAM", "Untrusted driver", "941 Mbits/sec", "13%");
    ("UDP_STREAM TX", "Kernel driver", "317 Kpackets/sec", "35%");
    ("UDP_STREAM TX", "Untrusted driver", "308 Kpackets/sec", "39%");
    ("UDP_STREAM RX", "Kernel driver", "238 Kpackets/sec", "20%");
    ("UDP_STREAM RX", "Untrusted driver", "235 Kpackets/sec", "26%");
    ("UDP_RR", "Kernel driver", "9590 Tx/sec", "5%");
    ("UDP_RR", "Untrusted driver", "9489 Tx/sec", "10%") ]

let figure8 () =
  banner "Figure 8: netperf on the simulated gigabit link (paper values alongside)";
  let rows = Netperf.figure8 () in
  Printf.printf "%-16s %-18s | %-20s %-6s | %-18s %-5s\n" "Test" "Driver" "Measured" "CPU"
    "Paper" "CPU";
  print_endline (String.make 95 '-');
  List.iter2
    (fun r (ptest, pdrv, pval, pcpu) ->
       assert (r.Netperf.test = ptest && r.Netperf.driver = pdrv);
       Printf.printf "%-16s %-18s | %-20s %-6s | %-18s %-5s\n" r.Netperf.test r.Netperf.driver
         r.Netperf.value r.Netperf.cpu pval pcpu)
    rows paper_figure8;
  print_endline
    "\nThe paper's shape, not checked here: equal TCP throughput at line rate; SUD\n\
     never beats the kernel driver on UDP streams; UDP_RR rates equal with SUD\n\
     paying ~2-4x CPU.";
  rows

(* ---- Figure 9: IO virtual memory mappings ---- *)

let figure9 () =
  banner "Figure 9: IO virtual memory mappings for the e1000 driver under SUD";
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let done_ = ref false in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"fig9" (fun () ->
         let sp = Safe_pci.init k in
         match Driver_host.launch k sp ~bdf (Driver_host.net ()) E1000.driver with
         | Error e -> failwith e
         | Ok s ->
           ignore (Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s) : (unit, string) result);
           let grant = Driver_host.grant s in
           let allocs = Safe_pci.dma_allocations grant in
           let labels =
             [ "Shared packet buffers (uchan pool)"; "TX ring descriptor"; "RX ring descriptor";
               "RX buffers" ]
           in
           Printf.printf "%-36s %-12s %s\n" "Memory use" "Start" "End";
           List.iteri
             (fun i (iova, len) ->
                let label = try List.nth labels i with _ -> "DMA region" in
                Printf.printf "%-36s 0x%08X   0x%08X\n" label iova (iova + len))
             allocs;
           (match Iommu.mode k.Kernel.iommu with
            | Iommu.Intel_vtd _ ->
              Printf.printf "%-36s 0x%08X   0x%08X\n" "Implicit MSI mapping (VT-d)"
                Bus.msi_window_base Bus.msi_window_limit
            | Iommu.Amd_vi -> ());
           Printf.printf "\n(page-table walk: %d mapped runs, all writable, nothing else)\n"
             (List.length (Safe_pci.iommu_mappings grant));
           done_ := true)
     : Fiber.t);
  Engine.run ~max_time:1_000_000_000 eng;
  if not !done_ then print_endline "figure 9 generation failed"

(* ---- §5.2: the security table ---- *)

let security () =
  banner "Security evaluation (5.2): attack containment matrix";
  Printf.printf "%-44s %-36s %s\n" "Attack" "Configuration" "Contained";
  print_endline (String.make 92 '-');
  List.iter
    (fun o ->
       Printf.printf "%-44s %-36s %s\n" o.Scenarios.attack
         (if String.length o.Scenarios.config > 36 then String.sub o.Scenarios.config 0 36
          else o.Scenarios.config)
         (if o.Scenarios.contained then "yes" else "NO"))
    (Scenarios.all ())

(* ---- §6 ablations ---- *)

let ablation_interrupt_defence () =
  banner "Ablation (6): cost of the three interrupt-storm defences";
  let m = Cost_model.default in
  Printf.printf "MSI mask toggle (PCI config write):   %5d ns\n" m.Cost_model.msi_mask_ns;
  Printf.printf "Interrupt-remap table update (VT-d):  %5d ns\n" m.Cost_model.irte_update_ns;
  Printf.printf "MSI-window unmap + IOTLB flush (AMD): %5d ns\n"
    (m.Cost_model.dma_map_ns + m.Cost_model.iotlb_flush_ns);
  print_endline
    "SUD masks first (cheap, reversible) and escalates only when masking fails\n\
     (DMA-forged messages), exactly the policy in 3.2.2.";
  (* Measured escalation behaviour under the forged-interrupt storm: *)
  List.iter
    (fun (mode, name) ->
       let o = Scenarios.msi_dma_storm ~iommu:mode in
       Printf.printf "  %-44s -> %s\n" name o.Scenarios.evidence)
    [ (Iommu.Intel_vtd { interrupt_remapping = false }, "VT-d, no IR (testbed)");
      (Iommu.Intel_vtd { interrupt_remapping = true }, "VT-d + interrupt remapping");
      (Iommu.Amd_vi, "AMD IOMMU") ]

let ablation_defensive_copy () =
  banner "Ablation (3.1.2): defensive copy vs read-only remap of shared buffers";
  let m = Cost_model.default in
  let pkt = 1448 in
  Printf.printf "Fused copy+checksum of a %d-byte packet: %d ns\n" pkt
    (Cost_model.checksum_cost m ~bytes:pkt);
  Printf.printf "IOTLB invalidation (per remap toggle):    %d ns\n" m.Cost_model.iotlb_flush_ns;
  Printf.printf
    "At 81k packets/s (TCP_STREAM), remapping would cost %.1f ms/s of IOTLB flushes\n"
    (float_of_int (81_000 * m.Cost_model.iotlb_flush_ns) /. 1e6);
  print_endline
    "-> \"invalidating TLB entries from the IOMMU's page table is prohibitively\n\
     expensive on current hardware\" (3.1.2); the fused copy wins."

let ablation_batching () =
  banner "Ablation (3.1.2): uchan asynchronous-downcall batching";
  (* Count notifications with and without batching under a packet burst. *)
  let run ~batch =
    let eng = Engine.create () in
    let k = Kernel.boot eng in
    let chan = Uchan.create k ~driver_label:"bench" () in
    Uchan.set_downcall_handler chan (fun ~queue:_ _ -> None);
    let proc = Process.spawn k.Kernel.procs ~name:"drv" ~uid:1000 in
    ignore
      (Process.spawn_fiber proc ~name:"sender" (fun () ->
           for _ = 1 to 1000 do
             Uchan.downcall_batched chan
               (Msg.make ~kind:Proxy_proto.down_tx_done ());
             if not batch then begin
               (* No batching: enter the kernel for every message, whose
                  entry drains it, then sleep. *)
               Uchan.flush chan;
               ignore (Fiber.sleep eng 2_000 : Fiber.wake)
             end
           done;
           Uchan.flush chan)
       : Fiber.t);
    Engine.run ~max_time:1_000_000_000 eng;
    Sud_obs.Metrics.get (Uchan.metrics chan).Uchan.um_notify
  in
  Printf.printf "1000 async downcalls, flushed per message: %4d notifications\n"
    (run ~batch:false);
  Printf.printf "1000 async downcalls, batched (SUD default): %4d notifications\n"
    (run ~batch:true)

let ablation_itr () =
  banner "Ablation: interrupt moderation (e1000 ITR) on UDP_RR";
  print_endline "(the paper's 9.6k Tx/s is set by the NIC's default ~50us moderation)";
  let r = Netperf.udp_rr Netperf.Kernel_driver in
  Printf.printf "ITR 50us (driver default): %7.0f Tx/sec at %2.0f%% CPU\n" r.Netperf.throughput
    r.Netperf.cpu_pct

(* ---- supervision: per-fault-class recovery latency ---- *)

let recovery_latencies () =
  banner "Driver supervision: detection and recovery latency per fault class";
  Printf.printf "%-18s %14s %14s\n" "Fault" "detect (us)" "outage (us)";
  print_endline (String.make 48 '-');
  List.map
    (fun fault ->
       let s = Fault_inject.measure_recovery fault in
       Printf.printf "%-18s %14d %14d\n" s.Fault_inject.rs_fault
         (s.Fault_inject.rs_detect_ns / 1_000)
         (s.Fault_inject.rs_outage_ns / 1_000);
       s)
    (* Corrupt_batch is contained without a restart — there is no
       recovery latency to measure for it. *)
    (List.filter Fault_inject.lethal Fault_inject.all_faults)

(* ---- supervision soak: the crash-loop harness (make soak) ---- *)

let soak_seed = bseed "bench:soak"

let soak_chain =
  [ ("uchan", "rpc"); ("iommu", "fault"); ("sup", "detect"); ("sup", "kill");
    ("sup", "restart") ]

let run_soak () =
  let recovery = recovery_latencies () in
  banner
    (Printf.sprintf "Supervision soak: seeded fault storm (seed 0x%LX)" soak_seed);
  (* Trace the whole storm: the export must show at least one injected
     DMA violation causally linked back to a uchan RPC and forward to the
     restart that recovered from it. *)
  (* The storm is over in the first ~4 s but the sim drains traffic for
     ~30 s more; the ring must span the whole run or the chain of an
     injected fault is evicted by tail-end heartbeat spans. *)
  Sud_obs.Trace.set_capacity (1 lsl 19);
  Sud_obs.Trace.set_enabled true;
  let r = Fault_inject.soak ~seed:soak_seed ~n_faults:200 ~duration_ms:4_000 () in
  Printf.printf "faults planned/applied/skipped: %d / %d / %d\n" r.Fault_inject.sr_planned
    r.Fault_inject.sr_applied r.Fault_inject.sr_skipped;
  List.iter
    (fun (cls, n) -> Printf.printf "  %-16s %d\n" cls n)
    r.Fault_inject.sr_by_class;
  Printf.printf "detections: %d   restarts: %d   deaths checked: %d\n"
    r.Fault_inject.sr_detections r.Fault_inject.sr_restarts r.Fault_inject.sr_deaths;
  Printf.printf "traffic: %d offered, %d sent, %d dropped; %d frames on the wire\n"
    r.Fault_inject.sr_offered r.Fault_inject.sr_sent r.Fault_inject.sr_dropped
    r.Fault_inject.sr_wire_frames;
  let bl = r.Fault_inject.sr_backlog in
  Printf.printf "backlog: offered %d = queued %d + dropped %d + replayed %d\n"
    bl.Netdev.bl_offered bl.Netdev.bl_queued bl.Netdev.bl_dropped bl.Netdev.bl_replayed;
  Printf.printf "worst outage: %d us\n" (r.Fault_inject.sr_max_outage_ns / 1_000);
  Printf.printf "malformed slots dropped across all generations: %d\n"
    r.Fault_inject.sr_malformed;
  (match r.Fault_inject.sr_violations with
   | [] -> print_endline "invariants: all held"
   | vs ->
     Printf.printf "INVARIANT VIOLATIONS (%d):\n" (List.length vs);
     List.iter (fun v -> print_endline ("  " ^ v)) vs);
  Sud_obs.Trace.set_enabled false;
  Check.ensure_traces ();
  let trace_path = "traces/soak_trace.jsonl" in
  let n_spans = Sud_obs.Trace.write_jsonl ~path:trace_path in
  let spans = Sud_obs.Trace.spans () in
  let parsed =
    match Sud_obs.Trace.read_jsonl ~path:trace_path with
    | Ok read -> List.length read
    | Error e ->
      Printf.printf "trace: %s\n" e;
      0
  in
  let chain_ok = Sud_obs.Trace.chain_exists spans soak_chain in
  Printf.printf
    "trace: %d spans emitted, %d retained, %d exported to %s (%d parse back)\n"
    (Sud_obs.Trace.emitted ()) (Sud_obs.Trace.retained ()) n_spans trace_path parsed;
  Printf.printf "causal chain rpc -> fault -> detect -> kill -> restart: %s\n"
    (if chain_ok then "found" else "MISSING");
  let qr = Fault_inject.crash_loop ~max_restarts:3 () in
  Printf.printf
    "crash loop: %d restarts then quarantined=%b, netdev removed=%b, sud_state=%S\n"
    qr.Fault_inject.qr_restarts qr.Fault_inject.qr_quarantined
    qr.Fault_inject.qr_netdev_removed qr.Fault_inject.qr_sysfs_state;
  ( [ ("recovery", recovery_rows recovery);
      ("seed", J.Str (Printf.sprintf "0x%LX" soak_seed));
      ("planned", J.Int r.Fault_inject.sr_planned);
      ("applied", J.Int r.Fault_inject.sr_applied);
      ("by_class", counts r.Fault_inject.sr_by_class);
      ("detections", J.Int r.Fault_inject.sr_detections);
      ("restarts", J.Int r.Fault_inject.sr_restarts);
      ("max_outage_ns", J.Int r.Fault_inject.sr_max_outage_ns);
      ("violations", strs r.Fault_inject.sr_violations);
      ("spans_exported", J.Int n_spans);
      ("crash_loop_restarts", J.Int qr.Fault_inject.qr_restarts) ],
    [ count "soak.violations" Eq 0 (List.length r.Fault_inject.sr_violations);
      holds "soak.running" (r.Fault_inject.sr_state = Supervisor.Running);
      count "soak.detections" Gt 0 r.Fault_inject.sr_detections;
      holds "soak.crash_loop_quarantined" qr.Fault_inject.qr_quarantined;
      holds "soak.crash_loop_netdev_removed" qr.Fault_inject.qr_netdev_removed;
      holds "soak.causal_chain" chain_ok;
      count "soak.spans_parsed" Eq n_spans parsed ] )

(* ---- sud-blk crash-consistency soak (make blk-smoke / make soak) ---- *)

let blk_soak_seed = bseed "bench:blk-soak"

let run_blk_soak ~n_faults () =
  banner
    (Printf.sprintf "sud-blk soak: %d storage faults under synchronous I/O (seed 0x%LX)"
       n_faults blk_soak_seed);
  let r = Fault_inject.blk_soak ~seed:blk_soak_seed ~n_faults ~duration_ms:6_000 () in
  Printf.printf "faults planned/applied/skipped: %d / %d / %d\n" r.Fault_inject.bsr_planned
    r.Fault_inject.bsr_applied r.Fault_inject.bsr_skipped;
  List.iter
    (fun (cls, n) -> Printf.printf "  %-20s %d\n" cls n)
    r.Fault_inject.bsr_by_class;
  Printf.printf "detections: %d   restarts: %d   deaths checked: %d\n"
    r.Fault_inject.bsr_detections r.Fault_inject.bsr_restarts r.Fault_inject.bsr_deaths;
  Printf.printf
    "workload: %d writes acked, %d reads, %d fsyncs, %d media sweeps, %d I/O errors\n"
    r.Fault_inject.bsr_writes r.Fault_inject.bsr_reads r.Fault_inject.bsr_fsyncs
    r.Fault_inject.bsr_verifies r.Fault_inject.bsr_io_errors;
  Printf.printf "worst outage: %d us\n" (r.Fault_inject.bsr_max_outage_ns / 1_000);
  List.iter
    (fun (reason, n) -> Printf.printf "  detected %-40s %d\n" reason n)
    r.Fault_inject.bsr_by_reason;
  Printf.printf "after final fsync: retained %d, in flight %d\n"
    r.Fault_inject.bsr_retained_end r.Fault_inject.bsr_inflight_end;
  (match r.Fault_inject.bsr_violations with
   | [] -> print_endline "crash-consistency invariant: held at every check"
   | vs ->
     Printf.printf "INVARIANT VIOLATIONS (%d):\n" (List.length vs);
     List.iter (fun v -> print_endline ("  " ^ v)) vs);
  ( [ ("seed", J.Str (Printf.sprintf "0x%LX" blk_soak_seed));
      ("planned", J.Int r.Fault_inject.bsr_planned);
      ("applied", J.Int r.Fault_inject.bsr_applied);
      ("by_class", counts r.Fault_inject.bsr_by_class);
      ("detections", J.Int r.Fault_inject.bsr_detections);
      ("restarts", J.Int r.Fault_inject.bsr_restarts);
      ("writes", J.Int r.Fault_inject.bsr_writes);
      ("fsyncs", J.Int r.Fault_inject.bsr_fsyncs);
      ("max_outage_ns", J.Int r.Fault_inject.bsr_max_outage_ns);
      ("by_reason", counts r.Fault_inject.bsr_by_reason);
      ("violations", strs r.Fault_inject.bsr_violations) ],
    [ count "blk_soak.violations" Eq 0 (List.length r.Fault_inject.bsr_violations);
      holds "blk_soak.running" (r.Fault_inject.bsr_state = Supervisor.Running);
      count "blk_soak.applied" Ge n_faults r.Fault_inject.bsr_applied;
      count "blk_soak.detections" Gt 0 r.Fault_inject.bsr_detections;
      count "blk_soak.retained_end" Eq 0 r.Fault_inject.bsr_retained_end;
      count "blk_soak.inflight_end" Eq 0 r.Fault_inject.bsr_inflight_end;
      count "blk_soak.io_errors" Eq 0 r.Fault_inject.bsr_io_errors ] )

(* ---- blkperf: the sud-blk datapath sweep (make bench-blk) ---- *)

(* Durable IOPS through the whole stack — page cache, request queue,
   proxy, uchan, untrusted NVMe driver, emulated device — across queue
   depth (concurrent synchronous workers) and read mix.  Writes are
   FUA (write-through) so every op pays the full submit->DMA->IRQ->
   completion round trip; reads land outside the written set so the
   cache cannot answer them.  Gates: depth must actually buy
   parallelism (qd16 over qd1 at the mixed point), and every storage
   fault class must recover inside the soak's outage bound. *)

let blkperf_depths = [ 1; 4; 16 ]
let blkperf_mixes = [ 0; 50; 100 ]                (* % of ops that are reads *)
let blkperf_write_pages = 512                     (* write working set, 4 KiB pages *)
let blkperf_read_region = 8192                    (* private cold-read pages per worker *)
let blkperf_window_ms = 40                        (* measured window (simulated) *)
let blkperf_warmup_ms = 5
let blkperf_scaling_floor = 2.0
let blkperf_outage_bound_ms = 500
let blkperf_io_timeout_ns = 5_000_000_000

type blkperf_point = {
  bpp_depth : int;
  bpp_read_pct : int;
  bpp_kiops : float;
  bpp_reads : int;
  bpp_writes : int;
  bpp_io_errors : int;
  bpp_lat_us : float;       (* mean per-op latency seen by one worker *)
}

let blkperf_point ~depth ~read_pct =
  (* The media is sparse, so a big device is free — big enough that no
     worker ever re-reads a page within the window, keeping every read
     a cold miss that crosses the proxy to the device (the unbounded
     page cache would otherwise answer re-reads in zero simulated
     time and the mix would measure memcpy). *)
  let capacity =
    (blkperf_write_pages + ((depth + 1) * blkperf_read_region)) * Blkdev.page_sectors
  in
  let w = Fault_inject.make_blk_world ~capacity () in
  Kernel.run ~max_ms:2_000 w.Fault_inject.bw_k (fun () ->
      let k = w.Fault_inject.bw_k in
      let eng = w.Fault_inject.bw_eng in
      let sv =
        match
          Supervisor.start_blk k w.Fault_inject.bw_sp ~bdf:w.Fault_inject.bw_bdf
            Fault_inject.honest_blk_factory
        with
        | Ok sv -> sv
        | Error e -> failwith ("blkperf: supervised start failed: " ^ e)
      in
      let bd =
        match Supervisor.blkdev sv with
        | Some bd -> bd
        | None -> failwith "blkperf: no blkdev after start"
      in
      let reads = ref 0 and writes = ref 0 and errors = ref 0 in
      let measuring = ref false and stop = ref false in
      let running = ref depth in
      for i = 0 to depth - 1 do
        ignore
          (Process.spawn_fiber (Process.kernel_process k.Kernel.procs)
             ~name:(Printf.sprintf "blkperf-%d" i)
             (fun () ->
                (* Writes scatter over a shared hot set (LCG); reads walk
                   a private region sequentially so no page is ever read
                   twice — every read misses the cache and pays the full
                   datapath. *)
                let st = ref ((0x5DEECE66D * (i + 1)) + read_pct) in
                let rand bound =
                  st := ((!st * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
                  (!st lsr 16) mod bound
                in
                let rbase = blkperf_write_pages + ((i + 1) * blkperf_read_region) in
                let rnext = ref 0 in
                let data = Bytes.make Blkdev.page_size (Char.chr (0x40 + i)) in
                while not !stop do
                  let r =
                    if rand 100 < read_pct then begin
                      incr reads;
                      let page = rbase + (!rnext mod blkperf_read_region) in
                      incr rnext;
                      match
                        Blkdev.read bd ~timeout_ns:blkperf_io_timeout_ns
                          ~lba:(page * Blkdev.page_sectors)
                          ~sectors:Blkdev.page_sectors ()
                      with
                      | Ok _ -> Ok ()
                      | Error e -> Error e
                    end
                    else begin
                      incr writes;
                      Blkdev.write_fua bd ~timeout_ns:blkperf_io_timeout_ns
                        ~lba:(rand blkperf_write_pages * Blkdev.page_sectors) data ()
                    end
                  in
                  (match r with
                   | Ok () -> ()
                   | Error _ -> incr errors);
                  if not !measuring then begin
                    (* Ops issued during warmup don't count. *)
                    reads := 0;
                    writes := 0
                  end;
                  (* Think time: guarantees the loop advances simulated
                     time even if an op is ever satisfied for free. *)
                  ignore (Fiber.sleep eng 200 : Fiber.wake)
                done;
                decr running)
           : Fiber.t)
      done;
      ignore (Fiber.sleep eng (blkperf_warmup_ms * 1_000_000) : Fiber.wake);
      reads := 0;
      writes := 0;
      errors := 0;
      measuring := true;
      let t0 = Engine.now eng in
      ignore (Fiber.sleep eng (blkperf_window_ms * 1_000_000) : Fiber.wake);
      let ops = !reads + !writes in
      let window_ns = Engine.now eng - t0 in
      stop := true;
      ignore (Fiber.poll eng ~every_ns:1_000_000 ~budget:1_000 (fun () -> !running = 0) : bool);
      { bpp_depth = depth;
        bpp_read_pct = read_pct;
        bpp_kiops = float_of_int ops /. (float_of_int window_ns /. 1e9) /. 1e3;
        bpp_reads = !reads;
        bpp_writes = !writes;
        bpp_io_errors = !errors;
        bpp_lat_us =
          (if ops = 0 then nan
           else float_of_int depth *. float_of_int window_ns /. float_of_int ops /. 1e3) })


let run_blkperf () =
  banner "blkperf: durable IOPS vs queue depth and read mix (supervised NVMe)";
  let points =
    List.concat_map
      (fun depth ->
         List.map (fun read_pct -> blkperf_point ~depth ~read_pct) blkperf_mixes)
      blkperf_depths
  in
  Printf.printf "%-8s %-10s %12s %10s %10s %10s %12s\n" "depth" "read%" "kIOPS" "reads"
    "writes" "io_errs" "lat (us/op)";
  print_endline (String.make 78 '-');
  List.iter
    (fun p ->
       Printf.printf "%-8d %-10d %12.1f %10d %10d %10d %12.1f\n" p.bpp_depth
         p.bpp_read_pct p.bpp_kiops p.bpp_reads p.bpp_writes p.bpp_io_errors p.bpp_lat_us)
    points;
  let kiops depth read_pct =
    match
      List.find_opt (fun p -> p.bpp_depth = depth && p.bpp_read_pct = read_pct) points
    with
    | Some p -> p.bpp_kiops
    | None -> nan
  in
  let errors = List.fold_left (fun acc p -> acc + p.bpp_io_errors) 0 points in
  banner "blkperf: single-fault recovery latency per storage fault class";
  Printf.printf "%-24s %14s %14s\n" "Fault" "detect (us)" "outage (us)";
  print_endline (String.make 54 '-');
  let recovery =
    List.map
      (fun fault ->
         let s = Fault_inject.measure_blk_recovery fault in
         Printf.printf "%-24s %14d %14d\n" s.Fault_inject.rs_fault
           (s.Fault_inject.rs_detect_ns / 1_000)
           (s.Fault_inject.rs_outage_ns / 1_000);
         s)
      Fault_inject.all_blk_faults
  in
  let worst_outage =
    List.fold_left (fun acc s -> max acc s.Fault_inject.rs_outage_ns) 0 recovery
  in
  ( [ ("units", J.Str "kiops");
      ("write_pages", J.Int blkperf_write_pages);
      ("read_region_pages", J.Int blkperf_read_region);
      ("window_ms", J.Int blkperf_window_ms);
      ( "points",
        J.List
          (List.map
             (fun p ->
                J.Obj
                  [ ("depth", J.Int p.bpp_depth);
                    ("read_pct", J.Int p.bpp_read_pct);
                    ("kiops", J.fnum ~dp:1 p.bpp_kiops);
                    ("reads", J.Int p.bpp_reads);
                    ("writes", J.Int p.bpp_writes);
                    ("io_errors", J.Int p.bpp_io_errors);
                    ("lat_us", J.fnum ~dp:1 p.bpp_lat_us) ])
             points) );
      ("recovery", recovery_rows recovery) ],
    [ gate "blkperf.scaling_qd16_over_qd1_mixed" Ge blkperf_scaling_floor
        (kiops 16 50 /. kiops 1 50);
      count "blkperf.worst_outage_ns" Le (blkperf_outage_bound_ms * 1_000_000) worst_outage;
      count "blkperf.io_errors" Eq 0 errors ] )

(* ---- warm standby: the upgrade soak (make upgrade-smoke) ---- *)

let upgrade_soak_seed = bseed "bench:upgrade-soak"
let upgrade_interleavings = 20

let run_upgrade_soak () =
  banner
    (Printf.sprintf
       "upgrade soak: %d upgrade+fault interleavings under synchronous I/O (seed 0x%LX)"
       upgrade_interleavings upgrade_soak_seed);
  let r =
    Fault_inject.upgrade_soak ~seed:upgrade_soak_seed
      ~interleavings:upgrade_interleavings ()
  in
  Printf.printf
    "upgrades: %d   warm swaps: %d   cold restarts: %d   standbys poisoned: %d\n"
    r.Fault_inject.usr_upgrades r.Fault_inject.usr_warm_swaps
    r.Fault_inject.usr_cold_restarts r.Fault_inject.usr_poisoned;
  Printf.printf "workload: %d writes acked, %d fsyncs, %d media sweeps, %d I/O errors\n"
    r.Fault_inject.usr_writes r.Fault_inject.usr_fsyncs r.Fault_inject.usr_verifies
    r.Fault_inject.usr_io_errors;
  (match r.Fault_inject.usr_violations with
   | [] -> print_endline "crash-consistency invariant: held across every interleaving"
   | vs ->
     Printf.printf "INVARIANT VIOLATIONS (%d):\n" (List.length vs);
     List.iter (fun v -> print_endline ("  " ^ v)) vs);
  ( [ ("seed", J.Str (Printf.sprintf "0x%LX" upgrade_soak_seed));
      ("interleavings", J.Int upgrade_interleavings);
      ("upgrades", J.Int r.Fault_inject.usr_upgrades);
      ("warm_swaps", J.Int r.Fault_inject.usr_warm_swaps);
      ("cold_restarts", J.Int r.Fault_inject.usr_cold_restarts);
      ("poisoned", J.Int r.Fault_inject.usr_poisoned);
      ("writes", J.Int r.Fault_inject.usr_writes);
      ("violations", strs r.Fault_inject.usr_violations) ],
    [ count "upgrade_soak.violations" Eq 0 (List.length r.Fault_inject.usr_violations);
      holds "upgrade_soak.running" (r.Fault_inject.usr_state = Supervisor.Running);
      count "upgrade_soak.io_errors" Eq 0 r.Fault_inject.usr_io_errors;
      count "upgrade_soak.upgrades" Gt 0 r.Fault_inject.usr_upgrades;
      count "upgrade_soak.warm_swaps" Gt 0 r.Fault_inject.usr_warm_swaps ] )

(* ---- warm standby: per-class failover outage vs the cold baseline ---- *)

(* Replays the blkperf recovery sweep with the warm standby enabled and
   gates on the headline claim: a crash-class failover served by a
   pre-forked generation must complete in at most half the cold outage
   the baseline records for that class. *)

let upgrade_speedup_floor = 2.0
let cold_outage_key fault = "cold_outage_ns." ^ fault

let run_upgrade_bench () =
  banner "warm failover: per-class outage with a pre-forked standby (vs the cold baseline)";
  Printf.printf "%-24s %14s %14s %9s\n" "Fault" "warm (us)" "cold (us)" "speedup";
  print_endline (String.make 64 '-');
  let rows =
    List.map
      (fun fault ->
         let s = Fault_inject.measure_warm_blk_recovery fault in
         let warm = s.Fault_inject.rs_outage_ns in
         let cold = Result.to_option (baseline (cold_outage_key s.Fault_inject.rs_fault)) in
         let speedup = match cold with Some c -> c /. float_of_int warm | None -> nan in
         Printf.printf "%-24s %14d %14s %8.1fx\n" s.Fault_inject.rs_fault (warm / 1_000)
           (match cold with Some c -> string_of_int (int_of_float c / 1_000) | None -> "?")
           speedup;
         (s, cold, speedup))
      Fault_inject.all_blk_faults
  in
  let warm_crash =
    match List.find_opt (fun (s, _, _) -> s.Fault_inject.rs_fault = "blk_crash") rows with
    | Some (s, _, _) -> float_of_int s.Fault_inject.rs_outage_ns
    | None -> nan
  in
  ( [ ("units", J.Str "ns");
      ( "recovery",
        J.List
          (List.map
             (fun (s, cold, speedup) ->
                J.Obj
                  [ ("fault", J.Str s.Fault_inject.rs_fault);
                    ("detect_ns", J.Int s.Fault_inject.rs_detect_ns);
                    ("warm_outage_ns", J.Int s.Fault_inject.rs_outage_ns);
                    ("cold_outage_ns", match cold with Some c -> J.Int (int_of_float c) | None -> J.Null);
                    ("speedup", J.fnum ~dp:1 speedup) ])
             rows) ) ],
    [ vs_baseline "upgrade.crash_speedup" Ge upgrade_speedup_floor
        (cold_outage_key "blk_crash") (fun cold -> cold /. warm_crash) ] )

(* ---- netperf_mq: the multiqueue sweep (make bench-mq) ---- *)

(* Sweeps the SUD e1000 over 1/2/4/8 MSI-X vectors under a fixed 8-flow
   UDP load.  The gate is the multiqueue acceptance bar: aggregate
   throughput at 4 queues must be at least 2x the 1-queue figure — the
   per-queue rings, vectors and service fibers must actually parallelize
   the datapath, not just shard its naming — and from 4 queues up RSS
   must spread the flows over at least two RX queues. *)

let mq_speedup_floor = 2.0

let run_netperf_mq () =
  banner "netperf_mq: aggregate UDP RX vs queue count (SUD driver, 8 flows, 8 cores)";
  let points = Netperf.mq_sweep () in
  Printf.printf "%-8s %14s %8s %10s   %s\n" "queues" "Kpackets/s" "CPU" "samples"
    "per-RX-queue frames";
  print_endline (String.make 78 '-');
  List.iter
    (fun p ->
       Printf.printf "%-8d %14.1f %7.0f%% %10d   [%s]\n" p.Netperf.mq_queues
         p.Netperf.mq_kpps p.Netperf.mq_cpu_pct p.Netperf.mq_samples
         (String.concat "; " (List.map string_of_int p.Netperf.mq_rxq_frames)))
    points;
  let kpps_at n =
    match List.find_opt (fun p -> p.Netperf.mq_queues = n) points with
    | Some p -> p.Netperf.mq_kpps
    | None -> nan
  in
  let fewest_active_rxqs =
    List.fold_left
      (fun acc p ->
         if p.Netperf.mq_queues < 4 then acc
         else min acc (List.length (List.filter (fun n -> n > 0) p.Netperf.mq_rxq_frames)))
      max_int points
  in
  ( [ ("flows", J.Int Netperf.mq_flows);
      ("units", J.Str "kpackets_per_sec");
      ( "points",
        J.List
          (List.map
             (fun p ->
                J.Obj
                  [ ("queues", J.Int p.Netperf.mq_queues);
                    ("kpps", J.fnum ~dp:1 p.Netperf.mq_kpps);
                    ("cpu_pct", J.fnum ~dp:1 p.Netperf.mq_cpu_pct);
                    ("samples", J.Int p.Netperf.mq_samples);
                    ( "rxq_frames",
                      J.List (List.map (fun f -> J.Int f) p.Netperf.mq_rxq_frames) ) ])
             points) ) ],
    [ gate "mq.speedup_4q_over_1q" Ge mq_speedup_floor (kpps_at 4 /. kpps_at 1);
      count "mq.active_rxqs_from_4q" Ge 2 fewest_active_rxqs ] )

(* ---- netperf_batch: the frame-aggregation sweep (make bench-batch) ---- *)

(* Gates: the fused defensive-copy+checksum must be at least 30% cheaper
   per full-MTU frame than the two passes it replaced; 8 queues with batch
   32 must beat the best pre-batching multiqueue figure (the baseline's
   4-queue point) by 1.5x; NAPI coalescing must hold interrupts under 0.2
   per frame at load; and the batch=1 single-frame path must stay within
   5% of the baseline's 1-queue figure (aggregation must not tax the
   unbatched case). *)

let batch_speedup_floor = 1.5
let batch_irq_ceiling = 0.2
let batch_single_frame_floor = 0.95
let fused_ratio_ceiling = 0.70

(* One process measures each (queues, batch) point once: [gates] runs
   batch smoke and fuzz, which both need 8q/batch=32. *)
let batch_points = Hashtbl.create 16

let batch_point ~queues ~batch =
  match Hashtbl.find_opt batch_points (queues, batch) with
  | Some p -> p
  | None ->
    let p = Netperf.udp_batch_rx ~queues ~batch in
    Hashtbl.replace batch_points (queues, batch) p;
    p

let irqs_per_frame p =
  float_of_int p.Netperf.bp_irqs /. float_of_int (max 1 p.Netperf.bp_frames)

let run_netperf_batch ~smoke () =
  banner "netperf_batch: frame aggregation + NAPI coalescing (SUD driver, 8 flows)";
  (* The fused pass vs the two passes it replaced, in simulated datapath
     cost at full MTU: one sweep does the copy and the checksum together,
     so it costs max(copy, checksum) + epsilon instead of their sum. *)
  let m = Cost_model.default in
  let pkt = 1448 in
  let two_pass = Cost_model.copy_cost m ~bytes:pkt + Cost_model.checksum_cost m ~bytes:pkt in
  let fused = Cost_model.fused_copy_checksum_cost m ~bytes:pkt in
  let fused_ratio = float_of_int fused /. float_of_int two_pass in
  Printf.printf "defensive copy then checksum, %dB frame: %5d ns\n" pkt two_pass;
  Printf.printf "fused single-pass copy+checksum:          %5d ns  (%.0f%% cheaper)\n\n"
    fused ((1. -. fused_ratio) *. 100.);
  (* Smoke mode (make bench-batch) measures only the four corner points
     the gates read; the full grid adds the interior batch=8 and
     queues=4 rows. *)
  let grid =
    if smoke then [ (1, 1); (1, 32); (8, 1); (8, 32) ]
    else List.concat_map (fun q -> List.map (fun b -> (q, b)) [ 1; 8; 32 ]) [ 1; 4; 8 ]
  in
  let points = List.map (fun (queues, batch) -> batch_point ~queues ~batch) grid in
  Printf.printf "%-8s %-8s %14s %8s %10s %12s %12s %14s\n" "queues" "batch" "Kpackets/s"
    "CPU" "samples" "frames" "irqs/frame" "cpu ns/frame";
  print_endline (String.make 92 '-');
  List.iter
    (fun p ->
       Printf.printf "%-8d %-8d %14.1f %7.0f%% %10d %12d %12.3f %14.0f\n" p.Netperf.bp_queues
         p.Netperf.bp_batch p.Netperf.bp_kpps p.Netperf.bp_cpu_pct p.Netperf.bp_samples
         p.Netperf.bp_frames (irqs_per_frame p) p.Netperf.bp_cpu_ns_per_frame)
    points;
  if smoke then print_endline "(smoke mode: corner points only)";
  let kpps q b = (batch_point ~queues:q ~batch:b).Netperf.bp_kpps in
  ( [ ("flows", J.Int Netperf.mq_flows);
      ("units", J.Str "kpackets_per_sec");
      ( "micro",
        J.Obj
          [ ("copy_then_checksum_1448B_ns", J.Int two_pass);
            ("copy_and_checksum_1448B_ns", J.Int fused) ] );
      ( "points",
        J.List
          (List.map
             (fun p ->
                J.Obj
                  [ ("queues", J.Int p.Netperf.bp_queues);
                    ("batch", J.Int p.Netperf.bp_batch);
                    ("kpps", J.fnum ~dp:1 p.Netperf.bp_kpps);
                    ("cpu_pct", J.fnum ~dp:1 p.Netperf.bp_cpu_pct);
                    ("samples", J.Int p.Netperf.bp_samples);
                    ("frames", J.Int p.Netperf.bp_frames);
                    ("irqs", J.Int p.Netperf.bp_irqs);
                    ("irqs_per_frame", J.fnum (irqs_per_frame p));
                    ("cpu_ns_per_frame", J.fnum ~dp:0 p.Netperf.bp_cpu_ns_per_frame) ])
             points) ) ],
    [ gate "batch.fused_ratio" Le fused_ratio_ceiling fused_ratio;
      vs_baseline "batch.speedup_8q_b32_over_4q" Ge batch_speedup_floor "mq_kpps.4q"
        (fun base -> kpps 8 32 /. base);
      gate "batch.irqs_per_frame_8q_b32" Lt batch_irq_ceiling
        (irqs_per_frame (batch_point ~queues:8 ~batch:32));
      vs_baseline "batch.single_frame_1q_b1" Ge batch_single_frame_floor "mq_kpps.1q"
        (fun base -> kpps 1 1 /. base) ] )

(* ---- proto_fuzz: the live Byzantine fuzz campaign (make fuzz-smoke) ---- *)

(* The adversarial-interface gate: a seeded 600-mutation campaign across
   every protocol-mutation class must leave zero containment-invariant
   violations with every class detected at least once, a pure protocol
   crash-looper must end in quarantine, and the always-on conformance
   validator must cost at most 5% of the baseline's 8q/batch=32
   throughput. *)

let fuzz_seed = bseed "bench:fuzz"
let fuzz_mutations = 600
let fuzz_overhead_floor = 0.95

let run_fuzz () =
  banner
    (Printf.sprintf "proto_fuzz: live Byzantine mutation campaign (seed 0x%LX, %d mutations)"
       fuzz_seed fuzz_mutations);
  let r = Proto_fuzz.campaign ~seed:fuzz_seed ~n_mutations:fuzz_mutations () in
  Printf.printf "mutations planned/applied/skipped: %d / %d / %d\n" r.Proto_fuzz.fz_planned
    r.Proto_fuzz.fz_applied r.Proto_fuzz.fz_skipped;
  Printf.printf "%-20s %10s %10s\n" "class" "applied" "detected";
  print_endline (String.make 42 '-');
  List.iter2
    (fun (cls, applied) (_, detected) ->
       Printf.printf "%-20s %10d %10d\n" cls applied detected)
    r.Proto_fuzz.fz_by_class r.Proto_fuzz.fz_detected;
  Printf.printf "supervisor: %d detections, %d restarts, %d deaths checked\n"
    r.Proto_fuzz.fz_detections r.Proto_fuzz.fz_restarts r.Proto_fuzz.fz_deaths;
  (match r.Proto_fuzz.fz_violations with
   | [] -> print_endline "invariants: all held"
   | vs ->
     Printf.printf "INVARIANT VIOLATIONS (%d):\n" (List.length vs);
     List.iter (fun v -> print_endline ("  " ^ v)) vs);
  let q = Proto_fuzz.quarantine_campaign ~max_restarts:3 () in
  Printf.printf "protocol crash loop: %d restarts then quarantined=%b\n"
    q.Proto_fuzz.pq_restarts q.Proto_fuzz.pq_quarantined;
  List.iter (fun v -> print_endline ("  quarantine violation: " ^ v))
    q.Proto_fuzz.pq_violations;
  (* The validator runs on every u2k slot of every benchmark, so the
     hottest batch point re-measured here carries its full cost. *)
  banner "conformance overhead: udp_batch_rx 8q/batch=32 vs the batch baseline";
  let p = batch_point ~queues:8 ~batch:32 in
  Printf.printf "8q batch=32: %.1f kpps\n" p.Netperf.bp_kpps;
  ( [ ("seed", J.Str (Printf.sprintf "0x%LX" r.Proto_fuzz.fz_seed));
      ("planned", J.Int r.Proto_fuzz.fz_planned);
      ("applied", J.Int r.Proto_fuzz.fz_applied);
      ("skipped", J.Int r.Proto_fuzz.fz_skipped);
      ( "classes",
        J.List
          (List.map
             (fun ((cls, applied), (_, detected)) ->
                J.Obj
                  [ ("class", J.Str cls);
                    ("applied", J.Int applied);
                    ("detected", J.Int detected) ])
             (List.combine r.Proto_fuzz.fz_by_class r.Proto_fuzz.fz_detected)) );
      ("detections", J.Int r.Proto_fuzz.fz_detections);
      ("restarts", J.Int r.Proto_fuzz.fz_restarts);
      ("deaths", J.Int r.Proto_fuzz.fz_deaths);
      ("violations", strs r.Proto_fuzz.fz_violations);
      ("quarantine_restarts", J.Int q.Proto_fuzz.pq_restarts);
      ("kpps_8q_b32", J.fnum ~dp:1 p.Netperf.bp_kpps) ],
    [ count "fuzz.violations" Eq 0 (List.length r.Proto_fuzz.fz_violations);
      holds "fuzz.running" (r.Proto_fuzz.fz_state = Supervisor.Running);
      count "fuzz.applied" Ge 500 r.Proto_fuzz.fz_applied;
      count "fuzz.fewest_detected_per_class" Gt 0
        (List.fold_left (fun acc (_, n) -> min acc n) max_int r.Proto_fuzz.fz_detected);
      holds "fuzz.crash_loop_quarantined" q.Proto_fuzz.pq_quarantined;
      count "fuzz.crash_loop_violations" Eq 0 (List.length q.Proto_fuzz.pq_violations);
      vs_baseline "fuzz.overhead_8q_b32" Ge fuzz_overhead_floor "batch_kpps.8q_b32"
        (fun base -> p.Netperf.bp_kpps /. base) ] )

(* ---- the paper's evaluation: every figure and table ---- *)

(* A report: it prints every table and gates nothing. *)
let run_harness ~quick () =
  figure5 ();
  figure6 ();
  figure7 ();
  figure9 ();
  security ();
  ablation_interrupt_defence ();
  ablation_defensive_copy ();
  ablation_batching ();
  let figure8_rows =
    if not quick then begin
      ablation_itr ();
      figure8 ()
    end
    else begin
      print_endline
        "\n(quick mode: skipped the netperf sweep — run without 'quick' for Figure 8)";
      []
    end
  in
  let recovery = recovery_latencies () in
  ( [ ( "figure8",
        J.List
          (List.map
             (fun r ->
                J.Obj
                  [ ("test", J.Str r.Netperf.test);
                    ("driver", J.Str r.Netperf.driver);
                    ("value", J.Str r.Netperf.value);
                    ("cpu", J.Str r.Netperf.cpu) ])
             figure8_rows) );
      ("metrics", Sud_obs.Metrics.to_json (Sud_obs.Metrics.snapshot ()));
      ("recovery", recovery_rows recovery) ],
    [] )

(* ---- sud-check: canary hunt, replay determinism, exploration
   throughput (make check-smoke) ---- *)

let check_budget = 200
let check_shrink_gate = 0.25
let check_replay_times = 3
let check_throughput_runs = 200

let run_check () =
  banner
    (Printf.sprintf "sud-check: canary hunt + replay determinism (root seed 0x%LX)"
       bench_root);
  (* Every seeded canary must be found by random exploration within the
     smoke budget and shrink to <= 25%% of the original counterexample. *)
  Printf.printf "%-22s %5s %9s %8s %18s %6s\n" "canary" "run" "points" "time(s)"
    "shrink" "pass";
  print_endline (String.make 72 '-');
  let canaries =
    List.map
      (fun (sc : Scenario.t) ->
         let h = Check.hunt ~mode:`Random ~budget:check_budget sc ~root_seed:bench_root in
         let ex = h.Check.hr_explore in
         let run, shown_run =
           match ex.Explore.ex_found with
           | Some fd -> (fd.Explore.fd_run, string_of_int fd.Explore.fd_run)
           | None -> (-1, "-")
         in
         let orig, mn, ratio, still =
           match h.hr_shrink with
           | Some sh ->
             (sh.Check.sh_orig_events, sh.sh_min_events, sh.sh_ratio, sh.sh_still_fails)
           | None -> (0, 0, 1.0, false)
         in
         let name = sc.Scenario.sc_name in
         let gates =
           [ holds ("check." ^ name ^ ".found") (run >= 0);
             holds ("check." ^ name ^ ".still_fails") still;
             gate ("check." ^ name ^ ".shrink_ratio") Le check_shrink_gate ratio ]
         in
         Printf.printf "%-22s %5s %9d %8.2f %10d -> %3d %6s\n" name shown_run ex.ex_points
           ex.ex_elapsed_s orig mn
           (if List.for_all passes gates then "ok" else "FAIL");
         ( J.Obj
             [ ("name", J.Str name);
               ("found_run", J.Int run);
               ("points", J.Int ex.ex_points);
               ("time_to_find_s", J.fnum ex.ex_elapsed_s);
               ("shrink_orig", J.Int orig);
               ("shrink_min", J.Int mn) ],
           gates ))
      Scenario.canaries
  in
  (* Recorded schedules must replay with identical trace hashes across
     three consecutive runs — for a canary and for a real fault-domain
     soak run through the supervisor. *)
  let replays =
    List.map
      (fun name ->
         let sc = Option.get (Check.find_scenario name) in
         let spec =
           Sched.Random { seed = bseed ("bench:check:replay:" ^ name); p_preempt = 30 }
         in
         Check.ensure_traces ();
         let path = Printf.sprintf "traces/bench_check_%s.sched.jsonl" name in
         ignore (Check.record ~path sc ~spec ~seed:(bseed ("bench:check:seed:" ^ name))
                 : Scenario.outcome * Sched.file);
         let trace_ok, metrics_ok =
           match Check.replay_file ~file:path ~times:check_replay_times with
           | Error e ->
             Printf.printf "replay %-22s ERROR %s\n" name e;
             (false, false)
           | Ok r ->
             Printf.printf "replay %-22s x%d: trace %s, metrics %s\n" name r.Check.rp_times
               (if r.rp_trace_ok then "bit-for-bit" else "DIVERGED")
               (if r.rp_metrics_equal then "stable" else "UNSTABLE");
             (r.rp_trace_ok, r.rp_metrics_equal)
         in
         ( J.Str name,
           [ holds ("check." ^ name ^ ".replay_trace") trace_ok;
             holds ("check." ^ name ^ ".replay_metrics") metrics_ok ] ))
      [ "doorbell_vs_publish"; "mini-soak" ]
  in
  (* Exploration throughput: how many distinct random schedules of a
     fiber-heavy scenario the engine retires per second. *)
  let tp_sc = Option.get (Check.find_scenario "stale_wakeup") in
  let tp_points = ref 0 in
  let t0 = Sys.time () in
  for i = 1 to check_throughput_runs do
    let spec =
      Sched.Random { seed = bseed (Printf.sprintf "bench:check:tp:%d" i); p_preempt = 50 }
    in
    let oc = tp_sc.Scenario.sc_run ~sched:spec ~seed:(bseed "bench:check:tp") in
    tp_points := !tp_points + oc.Scenario.oc_points
  done;
  let tp_elapsed = Sys.time () -. t0 in
  let per_s = float_of_int check_throughput_runs /. (max 1e-9 tp_elapsed) in
  Printf.printf
    "throughput: %d schedules of %s in %.2fs = %.0f schedules/s (%d choice points)\n"
    check_throughput_runs tp_sc.Scenario.sc_name tp_elapsed per_s !tp_points;
  ( [ ("root_seed", J.Str (Printf.sprintf "0x%LX" bench_root));
      ("budget", J.Int check_budget);
      ("canaries", J.List (List.map fst canaries));
      ("replayed", J.List (List.map fst replays));
      ("replay_times", J.Int check_replay_times);
      ( "throughput",
        J.Obj
          [ ("scenario", J.Str tp_sc.Scenario.sc_name);
            ("schedules", J.Int check_throughput_runs);
            ("elapsed_s", J.fnum tp_elapsed);
            ("schedules_per_s", J.fnum ~dp:1 per_s);
            ("choice_points", J.Int !tp_points) ] ) ],
    List.concat_map snd canaries @ List.concat_map snd replays )

(* ---- modes ---- *)

(* A mode prints its own tables and returns its result data and gate
   rows.  [run_mode] prints the rows and the verdict, and writes the
   result envelope to traces/bench_<name>.json. *)
type mode = {
  words : string list;  (* the whole command line that selects it *)
  run : unit -> (string * J.t) list * gate list;
}

let name_of m = match m.words with [] -> "full" | ws -> String.concat "-" ws

let run_mode m =
  let data, gates = m.run () in
  let name = name_of m in
  let pass = List.for_all passes gates in
  let path = Printf.sprintf "traces/bench_%s.json" name in
  Check.ensure_traces ();
  J.write ~path
    (J.Obj
       ((J.schema 10 :: ("bench", J.Str name) :: data)
        @ [ ("gates", J.List (List.map gate_json gates)); ("pass", J.Bool pass) ]));
  print_newline ();
  List.iter print_gate gates;
  Printf.printf "%s %s (%s)\n" (String.uppercase_ascii name)
    (if pass then "PASSED" else Printf.sprintf "FAILED, root seed 0x%LX" bench_root)
    path;
  (gates, pass)

let mq = { words = [ "mq" ]; run = run_netperf_mq }
let batch_smoke = { words = [ "batch"; "smoke" ]; run = run_netperf_batch ~smoke:true }
let fuzz = { words = [ "fuzz" ]; run = run_fuzz }
let blkperf = { words = [ "blkperf" ]; run = run_blkperf }
let upgrade = { words = [ "upgrade" ]; run = run_upgrade_bench }
let upgrade_soak = { words = [ "upgrade-soak" ]; run = run_upgrade_soak }
let check = { words = [ "check" ]; run = run_check }
let soak = { words = [ "soak" ]; run = run_soak }
let blk_soak_smoke = { words = [ "blk-soak"; "smoke" ]; run = run_blk_soak ~n_faults:40 }

(* Every gating mode, each run as on its own. *)
let gating = [ mq; batch_smoke; fuzz; blkperf; upgrade; upgrade_soak; check; soak; blk_soak_smoke ]

let gates () =
  let rows = List.concat_map (fun m -> fst (run_mode m)) gating in
  banner "gates: every row above";
  ([ ("modes", strs (List.map name_of gating)) ], rows)

let modes =
  [ { words = []; run = run_harness ~quick:false };
    { words = [ "quick" ]; run = run_harness ~quick:true };
    mq;
    { words = [ "batch" ]; run = run_netperf_batch ~smoke:false };
    batch_smoke;
    fuzz;
    blkperf;
    upgrade;
    upgrade_soak;
    check;
    soak;
    { words = [ "blk-soak" ]; run = run_blk_soak ~n_faults:200 };
    blk_soak_smoke;
    { words = [ "gates" ]; run = gates } ]

let usage =
  "usage: main.exe ["
  ^ String.concat " | "
      (List.filter_map
         (fun m -> if m.words = [] then None else Some (String.concat " " m.words))
         modes)
  ^ "]"

(* One mode per run: any other command line is a usage error, so a typo
   never silently runs the whole default harness. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match List.find_opt (fun m -> m.words = args) modes with
  | Some m -> exit (if snd (run_mode m) then 0 else 1)
  | None ->
    Printf.eprintf "main.exe: no mode %S\n%s\n" (String.concat " " args) usage;
    exit 2
