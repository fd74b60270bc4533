(** Warm-standby slot manager.

    Keeps at most one pre-forked generation parked and healthy so its
    owner (the supervisor) can swap it in on a lethal fault or a live
    upgrade instead of paying a cold start.  Generic in the generation
    type ['g]: the supervisor instantiates it with {!Driver_host.warm}.

    Every warm generation is built for exactly one [tag] (the uchan
    epoch the next swap will expect).  A slot whose tag no longer
    matches is stale and discarded — never swapped in.  A parked
    generation that [probe] reports unhealthy is poisoned: discarded,
    counted, and rebuilt from scratch. *)

type status = Idle | Warming | Ready | Disabled

val status_name : status -> string

type 'g t

val create :
  Kernel.t ->
  name:string ->
  warm:(tag:int -> ('g, string) result) ->
  probe:('g -> string option) ->
  discard:('g -> unit) ->
  'g t
(** [warm ~tag] builds one parked generation for live-generation [tag];
    it runs on a dedicated fiber and may block.  [probe g] returns
    [Some reason] if the parked generation is no longer fit to swap in
    (process died, protocol violation while parked).  [discard g] tears
    a generation down.  A transient [warm] failure is retried after
    1 ms, up to 3 times. *)

val set_on_ready : 'g t -> (unit -> unit) -> unit
(** Hook invoked (on the warming fiber) each time a generation is
    parked Ready. *)

val ensure : 'g t -> tag:int -> unit
(** Converge toward one Ready generation for [tag]: drop a stale or
    poisoned slot, and kick off a warming fiber if the slot is empty.
    Idempotent; cheap when already Ready for [tag]. *)

val take : 'g t -> tag:int -> 'g option
(** Claim the parked generation for [tag], if Ready and still healthy.
    Runs a final poison probe: a standby that died while parked is
    discarded (counted) and [None] is returned — callers fall back to
    the cold path.  [None] also when disabled, empty, or tag-stale. *)

val peek : 'g t -> 'g option
(** The parked generation without claiming it (fault injection kills its
    process through this to poison the standby). *)

val disable : 'g t -> unit
(** Permanently stop warming and discard any parked generation (driver
    quarantined or supervisor stopped). *)

val status : 'g t -> status
val stats : 'g t -> int * int
(** [(warmed, poisoned)] counters. *)
