(** sud-check: systematic schedule exploration, deterministic
    record/replay and counterexample shrinking for the driver fault
    domain.

    Layered on {!Engine}'s scheduler-policy hooks via {!Sched}: a
    scenario run under a recorded policy yields a decision list that
    replays bit-for-bit ({!Engine.trace_hash} equality), any failing
    schedule is dumped as a versioned JSONL file, and ddmin reduces it
    to a near-minimal repro. *)

val scenarios : Scenario.t list
val find_scenario : string -> Scenario.t option

val ensure_traces : unit -> unit
(** Create [traces/] if missing (best-effort). *)

val record :
  ?path:string -> Scenario.t -> spec:Sched.spec -> seed:int64
  -> Scenario.outcome * Sched.file
(** Run once under [spec], optionally saving the schedule file. *)

(** {1 Replay} *)

type replay_report = {
  rp_scenario : string;
  rp_file : string;
  rp_times : int;
  rp_expected_hash : int64;  (** trace hash recorded in the file *)
  rp_hashes : int64 list;  (** trace hash of each rerun *)
  rp_trace_ok : bool;  (** every rerun matched the recorded hash *)
  rp_metrics_equal : bool;  (** metrics snapshots agree across reruns *)
  rp_ok : bool;
}

val replay_file : file:string -> times:int -> (replay_report, string) result
(** Load a schedule file and re-execute it [times] times; bit-for-bit
    replay means every rerun's trace hash equals the recorded one and
    the metrics snapshots agree across reruns.  (The file's metrics
    hash is process-relative and is not compared cross-process.) *)

(** {1 Shrinking} *)

type shrink_report = {
  sh_scenario : string;
  sh_orig_events : int;
  sh_min_events : int;
  sh_ratio : float;  (** min/orig; the canary gate is [<= 0.25] *)
  sh_still_fails : bool;  (** the minimized schedule still fails *)
  sh_tests : int;  (** scenario re-runs spent *)
  sh_out : string option;  (** minimized schedule file, if saved *)
}

val shrink_counterexample :
  ?save:string -> Scenario.t -> seed:int64 -> Sched.decision list
  -> shrink_report * Sched.decision list
(** ddmin over the failing decision list; permissive replay makes every
    subset well-defined (dropped decisions degrade to FIFO). *)

(** {1 Hunt: explore, dump, shrink} *)

type hunt_report = {
  hr_explore : Explore.report;
  hr_shrink : shrink_report option;
  hr_orig_file : string option;  (** traces/check_<name>.sched.jsonl *)
  hr_min_file : string option;  (** traces/check_<name>.min.sched.jsonl *)
}

val hunt :
  ?mode:[ `Random | `Bounded ] ->
  ?budget:int ->
  ?p_preempt:int ->
  ?max_preemptions:int ->
  Scenario.t ->
  root_seed:int64 ->
  hunt_report
(** Explore (default random, budget 200); on the first failing schedule
    dump it under [traces/], ddmin it, and dump the minimized repro. *)
