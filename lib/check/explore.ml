(* Schedule-space search over a scenario.  Two modes:

   - random: N seeded-random schedules (preemption probability per
     choice point), the workhorse fuzzing mode;
   - bounded: systematic exploration with a preemption budget, in the
     CHESS/DPOR tradition — replay a prefix of forced deviations, run
     FIFO beyond it, and branch on the choice points the run exposes.

   Both keep the scenario seed fixed: everything but the schedule is
   pinned, so a hit is a pure interleaving counterexample. *)

type found = {
  fd_run : int;  (* schedule index that failed (0 = FIFO baseline) *)
  fd_spec : Sched.spec;
  fd_outcome : Scenario.outcome;
}

type report = {
  ex_scenario : string;
  ex_mode : string;
  ex_root_seed : int64;
  ex_scenario_seed : int64;
  ex_runs : int;
  ex_points : int;  (* choice points summed over all runs *)
  ex_fifo_clean : bool;
  ex_found : found option;
  ex_elapsed_s : float;
}

let scenario_seed ~root (sc : Scenario.t) = Rng.derive ~root sc.Scenario.sc_name

let base_report ~mode ~root_seed (sc : Scenario.t) =
  { ex_scenario = sc.Scenario.sc_name;
    ex_mode = mode;
    ex_root_seed = root_seed;
    ex_scenario_seed = scenario_seed ~root:root_seed sc;
    ex_runs = 0;
    ex_points = 0;
    ex_fifo_clean = false;
    ex_found = None;
    ex_elapsed_s = 0.0 }

let random ?(p_preempt = 50) (sc : Scenario.t) ~root_seed ~budget =
  let t0 = Sys.time () in
  let rep = ref (base_report ~mode:"random" ~root_seed sc) in
  let seed = !rep.ex_scenario_seed in
  let record spec i (oc : Scenario.outcome) =
    rep :=
      { !rep with
        ex_runs = !rep.ex_runs + 1;
        ex_points = !rep.ex_points + oc.Scenario.oc_points;
        ex_found =
          (match !rep.ex_found with
           | Some _ as f -> f
           | None ->
             if Scenario.failed oc then Some { fd_run = i; fd_spec = spec; fd_outcome = oc }
             else None) }
  in
  let fifo = sc.Scenario.sc_run ~sched:Sched.Fifo ~seed in
  record Sched.Fifo 0 fifo;
  rep := { !rep with ex_fifo_clean = not (Scenario.failed fifo) };
  (* A FIFO failure is not a schedule bug — stop and report it as run 0. *)
  if !rep.ex_fifo_clean then begin
    let i = ref 1 in
    while !i <= budget && !rep.ex_found = None do
      let spec =
        Sched.Random
          { seed = Rng.derive ~root:root_seed (Printf.sprintf "%s:run:%d" sc.sc_name !i);
            p_preempt }
      in
      record spec !i (sc.Scenario.sc_run ~sched:spec ~seed);
      incr i
    done
  end;
  { !rep with ex_elapsed_s = Sys.time () -. t0 }

(* Bounded systematic mode.  A frontier entry is a list of forced
   deviations (step, ready, pick>0); running it replays those picks and
   is FIFO everywhere else.  Children deviate at choice points the run
   exposed after the last forced step, up to the preemption budget. *)
let branch_points = 12

let bounded ?(max_preemptions = 2) (sc : Scenario.t) ~root_seed ~budget =
  let t0 = Sys.time () in
  let rep = ref (base_report ~mode:"bounded" ~root_seed sc) in
  let seed = !rep.ex_scenario_seed in
  let run prefix =
    let spec = Sched.Replay prefix in
    let oc = sc.Scenario.sc_run ~sched:spec ~seed in
    rep :=
      { !rep with
        ex_runs = !rep.ex_runs + 1;
        ex_points = !rep.ex_points + oc.Scenario.oc_points;
        ex_found =
          (match !rep.ex_found with
           | Some _ as f -> f
           | None ->
             if Scenario.failed oc then
               Some { fd_run = !rep.ex_runs; fd_spec = spec; fd_outcome = oc }
             else None) };
    oc
  in
  let children prefix (oc : Scenario.outcome) =
    if List.length prefix >= max_preemptions then []
    else begin
      let last_step =
        match List.rev prefix with [] -> -1 | d :: _ -> d.Sched.d_step
      in
      oc.Scenario.oc_decisions
      |> List.filter (fun d -> d.Sched.d_step > last_step)
      |> List.filteri (fun i _ -> i < branch_points)
      |> List.concat_map (fun d ->
             List.init (d.Sched.d_ready - 1) (fun j ->
                 prefix @ [ { d with Sched.d_pick = j + 1 } ]))
    end
  in
  let base = run [] in
  rep := { !rep with ex_fifo_clean = not (Scenario.failed base) };
  if !rep.ex_fifo_clean then begin
    let frontier = Queue.create () in
    List.iter (fun p -> Queue.add p frontier) (children [] base);
    while (not (Queue.is_empty frontier)) && !rep.ex_runs <= budget && !rep.ex_found = None
    do
      let prefix = Queue.pop frontier in
      let oc = run prefix in
      if !rep.ex_found = None then
        List.iter (fun p -> Queue.add p frontier) (children prefix oc)
    done
  end;
  { !rep with ex_elapsed_s = Sys.time () -. t0 }
