(** Checkable scenarios: named, seeded runs fingerprinted for
    record/replay, spanning the canary suite (deliberately seeded
    ordering bugs) and mini editions of the adversarial soaks. *)

type outcome = {
  oc_failures : string list;  (** invariant violations; [] = clean run *)
  oc_trace_hash : int64;  (** {!Engine.trace_hash} at the end *)
  oc_metrics_hash : int64;  (** {!Sud_obs.Metrics.snapshot_hash} ditto *)
  oc_steps : int;  (** engine events fired *)
  oc_points : int;  (** same-instant choice points offered *)
  oc_decisions : Sched.decision list;  (** the schedule actually taken *)
}

type t = {
  sc_name : string;
  sc_descr : string;
  sc_canary : bool;  (** a deliberately seeded ordering bug *)
  sc_run : sched:Sched.spec -> seed:int64 -> outcome;
      (** Run fresh under [sched]; [seed] fixes all non-schedule
          randomness (fault plans, payloads), so exploration searches
          schedule space with everything else pinned. *)
}

val failed : outcome -> bool

val all : t list
(** Canaries: [doorbell_vs_publish] (depth 1), [quiesce_vs_handoff]
    (depth 2), [stale_wakeup] (fiber wake path).  Mini soaks:
    [mini-soak], [mini-blk-soak], [mini-fuzz].  Block-layer ordering:
    [fsync-overlap] (four writers of one page, two fsyncing and two
    writing FUA; after every acknowledged call media holds at least the
    version it wrote). *)

val canaries : t list
val find : string -> t option
