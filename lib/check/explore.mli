(** Schedule-space search: seeded-random schedule fuzzing and bounded
    systematic exploration with a preemption budget. *)

type found = {
  fd_run : int;  (** schedule index that failed (0 = FIFO baseline) *)
  fd_spec : Sched.spec;  (** the policy that produced it *)
  fd_outcome : Scenario.outcome;
}

type report = {
  ex_scenario : string;
  ex_mode : string;  (** ["random"] or ["bounded"] *)
  ex_root_seed : int64;
  ex_scenario_seed : int64;  (** derived: fixes everything but the schedule *)
  ex_runs : int;  (** schedules executed, FIFO baseline included *)
  ex_points : int;  (** choice points offered, summed over all runs *)
  ex_fifo_clean : bool;  (** the FIFO baseline passed (canaries must) *)
  ex_found : found option;  (** first failing schedule, if any *)
  ex_elapsed_s : float;  (** CPU seconds; throughput = runs / elapsed *)
}

val scenario_seed : root:int64 -> Scenario.t -> int64
(** [Rng.derive ~root name] — the non-schedule seed every run shares. *)

val random : ?p_preempt:int -> Scenario.t -> root_seed:int64 -> budget:int -> report
(** FIFO baseline, then up to [budget] seeded-random schedules
    ([p_preempt]% chance per choice point of deviating, default 50),
    stopping at the first failure. *)

val bounded :
  ?max_preemptions:int ->
  Scenario.t ->
  root_seed:int64 ->
  budget:int ->
  report
(** Systematic BFS over forced-deviation prefixes in the CHESS/DPOR
    tradition: replay a prefix, run FIFO beyond it, branch on up to
    12 choice points exposed after the prefix, never
    forcing more than [max_preemptions] (default 2) deviations. *)
