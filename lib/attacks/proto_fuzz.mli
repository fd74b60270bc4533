(** Live Byzantine protocol fuzzer for the uchan interface.

    A seeded mutation engine sits between a {e real} driver (honest
    E1000 under supervision, live UDP traffic) and the kernel side of
    its entries, garbling marshalled u2k slots in flight, forging slots
    the driver never sent and hammering the notification doorbell.
    Each mutation class maps onto a specific detector, and {!campaign}
    asserts that every class was detected at least once while the soak
    containment invariants (kernel secret intact, grant revoked on
    death, no stale IOTLB translation) held across all the driver
    deaths it provoked. *)

type mutation =
  | Kind_swap
      (** rewrite the kind to a wild opcode → [Unknown_kind] *)
  | Seq_skew
      (** replayed or invented sequence number →
          [Nonmonotone_seq] / [Seq_from_future] *)
  | Stale_epoch
      (** stamp a dead generation's epoch → [Bad_epoch] *)
  | Len_bomb
      (** length/count field past the slot → defensive unmarshal,
          [um_malformed] *)
  | Completion_forge
      (** reply to an RPC the kernel never issued →
          [Forged_completion] *)
  | Notify_flood
      (** doorbell storm with nothing behind the kicks → quota
          notification-bucket overflow *)

type fuzz_report = {
  fz_seed : int64;
  fz_planned : int;
  fz_applied : int;
  fz_skipped : int;
  fz_by_class : (string * int) list;   (** applications per class *)
  fz_detected : (string * int) list;   (** detector hits per class *)
  fz_detections : int;                 (** supervisor fault detections *)
  fz_restarts : int;
  fz_deaths : int;
  fz_state : Supervisor.state;         (** must be [Running] *)
  fz_violations : string list;         (** must be [[]] *)
  fz_sched : Fault_inject.sched_summary;
}

val campaign :
  ?sched:Sched.spec ->
  ?seed:int64 ->
  ?n_mutations:int ->
  unit ->
  fuzz_report
(** Run a supervised honest E1000 under continuous burst traffic while
    applying [n_mutations] (default 600) mutations round-robin across
    every class, waiting for the supervisor to return to [Running]
    between lethal ones.  Each [Notify_flood] rings 6000 doorbells,
    comfortably past the default 4096-token bucket.
    [fz_violations] collects both containment-invariant failures and
    coverage failures (a class never applied or never detected). *)

type quarantine_report = {
  pq_restarts : int;
  pq_quarantined : bool;               (** must be [true] *)
  pq_violations : string list;         (** must be [[]] *)
  pq_trace_hash : int64;               (** {!Engine.trace_hash} at the end of the run *)
  pq_steps : int;                      (** engine events fired *)
}

val quarantine_campaign : ?max_restarts:int -> unit -> quarantine_report
(** Make every fresh generation speak out of protocol immediately: the
    supervisor must burn its restart budget (default 3) on protocol
    violations alone and quarantine the device, with the containment
    invariants holding at every death. *)
