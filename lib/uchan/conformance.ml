(* Kernel-side uchan protocol adjudicator.

   Defensive unmarshalling (length fields, batch checksums) only proves a
   slot is *well-formed*; a malicious driver can still speak perfectly
   well-formed nonsense — replay frames from a generation the supervisor
   already killed, forge completions for RPCs the kernel never issued,
   reuse old sequence numbers, or fire data downcalls before the
   registration handshake.  This module is the protocol layer of the
   defence: a per-channel validator the kernel consults on every
   driver-to-kernel slot as a driver's entry drains it, combining

   - a generation {b epoch} stamped into every marshalled header (the
     supervisor bumps it on restart, so stale-generation replay is a
     one-comparison detect);
   - {b monotone sequence numbers}: both directions draw correlation ids
     from one per-channel counter, so any non-reply seq must climb and
     can never exceed the issue high-water mark;
   - {b reply matching}: a completion must answer a seq the kernel
     actually issued; one above the high-water mark is forged out of
     thin air (a late reply to a timed-out RPC is counted separately —
     it is an anomaly, not an attack, and must not restart drivers);
   - a small {b DFA over message kinds}: channels begin in [Start] and
     enter [Ready] on the proxy-class registration downcall; data-plane
     kinds before registration are out of protocol.  Kind semantics live
     above this library (Proxy_proto is in sud_core), so the DFA is
     parameterised by an injectable {!profile}; raw channels get the
     {!permissive} profile and only the epoch/seq/reply checks.

   Violations are counted per class ([um_proto_violation{class=...}])
   and summed into an escalation total the supervisor baselines per
   generation — one new violation is a kill-and-restart signal,
   quarantine-eligible like grant storms. *)

(* What a kind is allowed to do, per the channel's proxy class. *)
type kind_class =
  | Register    (* handshake: moves the channel Start -> Ready *)
  | Data        (* data plane: only legal once Ready *)
  | Control     (* legal in any state (printk, carrier, irq acks, ...) *)
  | Unknown     (* not part of the proxy class's vocabulary *)

type profile = {
  p_name : string;
  p_classify : int -> kind_class;
}

(* Raw channels (tests, microbenches) have no kind vocabulary: everything
   is Control, so only epoch/seq/reply conformance applies. *)
let permissive = { p_name = "permissive"; p_classify = (fun _ -> Control) }

type violation =
  | Bad_epoch             (* slot stamped with a dead generation's epoch *)
  | Nonmonotone_seq       (* non-reply seq at or below one already seen *)
  | Seq_from_future       (* non-reply seq above the issue high-water mark *)
  | Forged_completion     (* reply to a seq the kernel never issued *)
  | Stale_completion      (* reply to an issued seq no longer pending: a
                             late answer to a timed-out RPC.  Counted,
                             never escalated. *)
  | Early_data            (* data kind before the registration handshake *)
  | Unknown_kind          (* kind outside the proxy class's vocabulary *)

let class_name = function
  | Bad_epoch -> "bad_epoch"
  | Nonmonotone_seq -> "nonmonotone_seq"
  | Seq_from_future -> "seq_from_future"
  | Forged_completion -> "forged_completion"
  | Stale_completion -> "stale_completion"
  | Early_data -> "early_data"
  | Unknown_kind -> "unknown_kind"

let all_classes =
  [ Bad_epoch; Nonmonotone_seq; Seq_from_future; Forged_completion;
    Stale_completion; Early_data; Unknown_kind ]

let n_classes = List.length all_classes

let class_index = function
  | Bad_epoch -> 0
  | Nonmonotone_seq -> 1
  | Seq_from_future -> 2
  | Forged_completion -> 3
  | Stale_completion -> 4
  | Early_data -> 5
  | Unknown_kind -> 6

(* Stale completions are a benign race (kernel timed out, driver answered
   late) that legitimately happens under injected hangs; everything else
   is out-of-protocol and restart-worthy. *)
let escalates = function Stale_completion -> false | _ -> true

type verdict = Pass | Violation of violation

type t = {
  c_profile : profile;
  mutable c_epoch : int;
  mutable c_ready : bool;           (* DFA: Start(false) -> Ready(true) *)
  mutable c_seq_hi : int;           (* highest non-reply seq accepted *)
  counts : int array;               (* per violation class *)
  mutable c_total : int;            (* escalation-eligible violations *)
  vc : Sud_obs.Metrics.counter array;
}

let create ?(profile = permissive) ~label ~epoch () =
  { c_profile = profile;
    c_epoch = epoch land Msg.max_epoch;
    c_ready = false;
    c_seq_hi = 0;
    counts = Array.make n_classes 0;
    c_total = 0;
    vc =
      Array.of_list
        (List.map
           (fun cl ->
              Sud_obs.Metrics.counter
                ~labels:[ ("chan", label); ("class", class_name cl) ]
                ~subsystem:"uchan" ~name:"proto_violation" ())
           all_classes) }

(* Supervisor restart: new generation, fresh handshake, but the seq
   counter is per-channel state the kernel owns, so it survives. *)
let new_generation t ~epoch =
  t.c_epoch <- epoch land Msg.max_epoch;
  t.c_ready <- false

let note t v =
  t.counts.(class_index v) <- t.counts.(class_index v) + 1;
  Sud_obs.Metrics.incr t.vc.(class_index v);
  if escalates v then t.c_total <- t.c_total + 1

let violations t = t.c_total
let class_count t v = t.counts.(class_index v)

let class_counts t =
  List.map (fun cl -> (class_name cl, t.counts.(class_index cl))) all_classes

(* Validate one driver->kernel message before the kernel acts on it.

   [issued_hi] is the channel's fresh-seq high-water mark (the largest
   correlation id either side has been handed); [pending] tells whether a
   reply's seq still has a waiter.  Returns the first violation found —
   the caller drops the message (except stale completions, which were
   already no-ops). *)
let check_ingress t ~epoch ~is_reply ~seq ~kind ~pending ~issued_hi =
  if epoch <> t.c_epoch then begin
    let v = Bad_epoch in note t v; Violation v
  end
  else if is_reply then begin
    if seq <= 0 || seq > issued_hi then begin
      let v = Forged_completion in note t v; Violation v
    end
    else if not (pending seq) then begin
      let v = Stale_completion in note t v; Violation v
    end
    else Pass
  end
  else if seq <> 0 && seq > issued_hi then begin
    let v = Seq_from_future in note t v; Violation v
  end
  else if seq <> 0 && seq <= t.c_seq_hi then begin
    let v = Nonmonotone_seq in note t v; Violation v
  end
  else begin
    let verdict =
      match t.c_profile.p_classify kind with
      | Control -> Pass
      | Register -> t.c_ready <- true; Pass
      | Data when t.c_ready -> Pass
      | Data -> let v = Early_data in note t v; Violation v
      | Unknown -> let v = Unknown_kind in note t v; Violation v
    in
    (match verdict with
     | Pass -> if seq <> 0 then t.c_seq_hi <- seq
     | Violation _ -> ());
    verdict
  end
