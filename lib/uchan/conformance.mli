(** Kernel-side uchan protocol adjudicator.

    Defensive unmarshalling proves a slot is {e well-formed}; this module
    checks it is {e in protocol}: stamped with the live generation epoch,
    sequence numbers monotone and below the issue high-water mark,
    completions matching RPCs the kernel actually issued, and message
    kinds legal in the channel's current DFA state (a registration
    handshake gates the data plane).  Violations are counted per class
    ([uchan/proto_violation{chan,class}]) and summed into an escalation
    total the supervisor treats as a kill signal — quarantine-eligible
    like grant storms.

    Kind semantics (which opcode registers, which is data) belong to the
    proxy classes living above this library, so the DFA is parameterised
    by an injectable {!profile}; channels without one get a permissive
    profile (epoch/seq/reply checks only). *)

type kind_class =
  | Register    (** handshake: moves the channel [Start] -> [Ready] *)
  | Data        (** data plane: only legal once [Ready] *)
  | Control     (** legal in any state (printk, carrier, irq acks, ...) *)
  | Unknown     (** not part of the proxy class's vocabulary *)

type profile = {
  p_name : string;
  p_classify : int -> kind_class;
}

type violation =
  | Bad_epoch             (** slot stamped with a dead generation's epoch *)
  | Nonmonotone_seq       (** non-reply seq at or below one already seen *)
  | Seq_from_future       (** non-reply seq above the issue high-water mark *)
  | Forged_completion     (** reply to a seq the kernel never issued *)
  | Stale_completion      (** late reply to a timed-out RPC — counted,
                              never escalated *)
  | Early_data            (** data kind before the registration handshake *)
  | Unknown_kind          (** kind outside the proxy class's vocabulary *)

val class_name : violation -> string

val escalates : violation -> bool
(** Everything except {!Stale_completion}, which is a benign race. *)

type verdict = Pass | Violation of violation

type t

val create : ?profile:profile -> label:string -> epoch:int -> unit -> t

val new_generation : t -> epoch:int -> unit
(** Supervisor restart: adopt the new generation's epoch and drop back to
    the [Start] DFA state (a fresh driver must re-register).  Violation
    counts and the sequence high-water mark survive. *)

val check_ingress :
  t ->
  epoch:int -> is_reply:bool -> seq:int -> kind:int ->
  pending:(int -> bool) -> issued_hi:int ->
  verdict
(** Validate one driver->kernel message before the kernel acts on it.
    [issued_hi] is the channel's fresh-seq high-water mark; [pending]
    says whether a reply's correlation id still has a waiter.  On
    [Violation] the caller must drop the message. *)

val violations : t -> int
(** Escalation-eligible total (excludes {!Stale_completion}). *)

val class_count : t -> violation -> int
val class_counts : t -> (string * int) list
