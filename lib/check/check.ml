(* sud-check top level: tie scenarios, exploration, shrinking and the
   schedule-file format together for the CLI, the bench and the tests. *)

let scenarios = Scenario.all
let find_scenario = Scenario.find

let ensure_traces () =
  try if not (Sys.file_exists "traces") then Sys.mkdir "traces" 0o755
  with Sys_error _ -> ()

let file_of_outcome ~scenario ~seed ~spec (oc : Scenario.outcome) =
  let r =
    { Sched.rec_rev = List.rev oc.Scenario.oc_decisions;
      rec_points = oc.oc_points;
      rec_divergence = None }
  in
  Sched.file_of ~scenario ~seed ~spec ~trace_hash:oc.oc_trace_hash
    ~metrics_hash:oc.oc_metrics_hash ~steps:oc.oc_steps r

let record ?path (sc : Scenario.t) ~spec ~seed =
  let oc = sc.Scenario.sc_run ~sched:spec ~seed in
  let f = file_of_outcome ~scenario:sc.sc_name ~seed ~spec oc in
  Option.iter (fun p -> ensure_traces (); Sched.save ~path:p f) path;
  (oc, f)

(* ---- replay a schedule file ---- *)

type replay_report = {
  rp_scenario : string;
  rp_file : string;
  rp_times : int;
  rp_expected_hash : int64;
  rp_hashes : int64 list;
  rp_trace_ok : bool;  (* every rerun reproduced the recorded trace hash *)
  rp_metrics_equal : bool;  (* metrics snapshots agree across the reruns *)
  rp_ok : bool;
}

let replay_file ~file ~times =
  match Sched.load file with
  | Error e -> Error e
  | Ok f ->
    (match Scenario.find f.Sched.f_scenario with
     | None -> Error (Printf.sprintf "%s: unknown scenario %S" file f.Sched.f_scenario)
     | Some sc ->
       let outs =
         List.init (max 1 times) (fun _ ->
             sc.Scenario.sc_run ~sched:(Sched.Replay f.f_decisions) ~seed:f.f_seed)
       in
       let hashes = List.map (fun o -> o.Scenario.oc_trace_hash) outs in
       let trace_ok = List.for_all (fun h -> h = f.f_trace_hash) hashes in
       let metrics_equal =
         match List.map (fun o -> o.Scenario.oc_metrics_hash) outs with
         | [] -> true
         | m :: tl -> List.for_all (fun x -> x = m) tl
       in
       Ok
         { rp_scenario = f.f_scenario;
           rp_file = file;
           rp_times = max 1 times;
           rp_expected_hash = f.f_trace_hash;
           rp_hashes = hashes;
           rp_trace_ok = trace_ok;
           rp_metrics_equal = metrics_equal;
           rp_ok = trace_ok && metrics_equal })

(* ---- shrink a failing schedule ---- *)

type shrink_report = {
  sh_scenario : string;
  sh_orig_events : int;  (* decisions in the original counterexample *)
  sh_min_events : int;
  sh_ratio : float;  (* min / orig; gate is <= 0.25 for canaries *)
  sh_still_fails : bool;
  sh_tests : int;  (* scenario re-runs the shrinker spent *)
  sh_out : string option;
}

let shrink_counterexample ?save (sc : Scenario.t) ~seed decisions =
  let test ds =
    Scenario.failed (sc.Scenario.sc_run ~sched:(Sched.Replay ds) ~seed)
  in
  let min_ds, tests = Shrink.ddmin ~test decisions in
  let min_oc = sc.Scenario.sc_run ~sched:(Sched.Replay min_ds) ~seed in
  let still = Scenario.failed min_oc in
  let out =
    match save with
    | None -> None
    | Some path ->
      ensure_traces ();
      (* Save the forced deviations as the schedule, fingerprinted by
         the minimized run they reproduce. *)
      let r =
        { Sched.rec_rev = List.rev min_ds;
          rec_points = min_oc.Scenario.oc_points;
          rec_divergence = None }
      in
      Sched.save ~path
        (Sched.file_of ~scenario:sc.sc_name ~seed ~spec:(Sched.Replay min_ds)
           ~trace_hash:min_oc.oc_trace_hash ~metrics_hash:min_oc.oc_metrics_hash
           ~steps:min_oc.oc_steps r);
      Some path
  in
  let orig = List.length decisions in
  let mn = List.length min_ds in
  ( { sh_scenario = sc.sc_name;
      sh_orig_events = orig;
      sh_min_events = mn;
      sh_ratio = (if orig = 0 then 1.0 else float_of_int mn /. float_of_int orig);
      sh_still_fails = still;
      sh_tests = tests + 1;
      sh_out = out },
    min_ds )

(* ---- explore + shrink in one motion ---- *)

type hunt_report = {
  hr_explore : Explore.report;
  hr_shrink : shrink_report option;
  hr_orig_file : string option;
  hr_min_file : string option;
}

let hunt ?(mode = `Random) ?(budget = 200) ?p_preempt ?max_preemptions
    (sc : Scenario.t) ~root_seed =
  let ex =
    match mode with
    | `Random -> Explore.random ?p_preempt sc ~root_seed ~budget
    | `Bounded -> Explore.bounded ?max_preemptions sc ~root_seed ~budget
  in
  match ex.Explore.ex_found with
  | None -> { hr_explore = ex; hr_shrink = None; hr_orig_file = None; hr_min_file = None }
  | Some fd ->
    ensure_traces ();
    let seed = ex.ex_scenario_seed in
    let orig_path = Printf.sprintf "traces/check_%s.sched.jsonl" sc.Scenario.sc_name in
    Sched.save ~path:orig_path
      (file_of_outcome ~scenario:sc.sc_name ~seed ~spec:fd.Explore.fd_spec
         fd.fd_outcome);
    let min_path = Printf.sprintf "traces/check_%s.min.sched.jsonl" sc.sc_name in
    let sh, _min_ds =
      shrink_counterexample ~save:min_path sc ~seed
        fd.fd_outcome.Scenario.oc_decisions
    in
    { hr_explore = ex;
      hr_shrink = Some sh;
      hr_orig_file = Some orig_path;
      hr_min_file = Some min_path }
