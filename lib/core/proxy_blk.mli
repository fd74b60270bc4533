(** The kernel block proxy (sud-blk): {!Blkdev} requests become
    [up_blk_submit] upcalls; [down_blk_complete] downcalls become
    {!Blkdev.complete} calls.

    {b Crash consistency.}  Every request carries a monotonically
    increasing idempotency tag that survives driver generations in the
    {!persist} record, along with the in-flight table and the
    unflushed-retention list (completed writes not yet proven durable
    by a Flush completion).  After a supervised restart,
    {!Proxy_class.resume} replays both sets in tag order and owes a
    trailing barrier; {!Blkdev.complete} fires upstream completions at
    most once, so replay is idempotent: {e no acknowledged write is ever
    lost, and no unacknowledged write becomes visible without being
    acknowledged}.

    Retention drops follow the {e flush-covering rule}: a Flush
    completion [F] drops a retained write [W] iff [W] completed before
    [F] was submitted {e and} no in-flight request has a tag older than
    [F] — the second clause defends against forged completion ids,
    whose true victim stays in flight with an older tag and escalates
    by timeout. *)

type t

(** Driver-generation-independent state: tags, in-flight table,
    unflushed retention, the surviving {!Blkdev.t}.  Create one per
    device and pass it to every generation via [?adopt]. *)
type persist

val persist_create : unit -> persist
val persist_blkdev : persist -> Blkdev.t option
val persist_inflight : persist -> int
val persist_retained : persist -> int

val create :
  Kernel.t ->
  chan:Uchan.t ->
  grant:Safe_pci.grant ->
  pool:Bufpool.t ->
  name:string ->
  ?parked:bool ->
  ?adopt:persist ->
  unit ->
  t
(** A submitted request may stay uncompleted for 10 ms before
    {!Proxy_class.hung} reports it — the escalation path for
    dropped/corrupted completions and dropped flushes.

    With [~parked:true] (warm standby) the proxy may share the live
    generation's [?adopt] persist record but treats it as read-only:
    registration is recorded (geometry + ready broadcast) without
    touching persist, blkdev or issuer; completions are counted as
    forged; quiesce does not detach; {!Proxy_class.resume} refuses to
    serve until {!Proxy_class.adopt} swaps the proxy in. *)

val wait_ready : t -> timeout_ns:int -> Blkdev.t option
(** Block until the driver registers its block device (or time out). *)

val wait_registered : t -> timeout_ns:int -> bool
(** Like {!wait_ready} but keyed on the registration downcall alone, so
    it is also satisfied by a {e parked} registration (which leaves the
    blkdev with the live generation) — the warm-standby readiness
    probe. *)

type Proxy_class.state += Blk_state of persist
(** The blk class's handoff payload: the generation-independent persist
    record (tags, in-flight table, retention, surviving blkdev). *)

val blkdev : t -> Blkdev.t option
val inflight : t -> int
val retained : t -> int

val inflight_flush : t -> bool
(** A flush barrier is currently in flight — the window the soak
    harness crashes into for its crash-mid-barrier fault class. *)

val inflight_summary : t -> string
(** One line per in-flight request (oldest first) plus the send-queue
    state — [sudctl blk status] and harness diagnostics. *)

val quiesce : t -> unit
(** Detach the block device (staging absorbs new requests) and admit no
    further submissions from this generation.  Idempotent. *)

val instance : t -> Proxy_class.instance
(** This proxy as a member of the unified device-class API
    (class name ["blk"]). *)
