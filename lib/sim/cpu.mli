(** A pool of CPU cores with busy-time accounting.

    {!consume} charges CPU time to the calling fiber: the fiber occupies the
    core that can start the work soonest (an idle one, else the
    earliest-free) and blocks until the work completes, so CPU contention
    naturally delays other consumers.  Busy time is accumulated globally
    and per label, which is how the benchmarks report the "CPU %" column
    of Figure 8 and perfbench its per-layer ledger. *)

type t

val create : Engine.t -> cores:int -> Cost_model.t -> t

val cores : t -> int
val cost_model : t -> Cost_model.t

(** {1 Charging}

    Busy time is booked against a ledger {!cell}: one label's line.  An
    owner that charges often (a process, an IRQ vector's CPU, a proxy)
    resolves its cell once with {!cell}; a charge through a cell then
    neither builds nor hashes a string.  {!consume} and {!account} are the
    string entry points: they resolve the label on every call. *)

type cell
(** The ledger line of one label on one {!t}. *)

val cell : t -> string -> cell
(** [cell t label] is [label]'s line, created on first use; resolving the
    same label again returns the same cell.  A line shows up in {!labels}
    only once something is charged to it. *)

val consume_cell : cell -> int -> unit
(** Charge [ns] of CPU to the cell; the current fiber blocks until the work
    is done (including any queueing delay for a free core).  Zero or
    negative cost is a no-op.  Not interruptible. *)

val account_cell : cell -> int -> unit
(** Record busy time without blocking — for costs incurred by pure event
    callbacks (e.g. device-side processing) that should still count against
    utilization. *)

val charge : cell -> int -> unit
(** [consume_cell] when called from a fiber, [account_cell] from event
    context (an engine callback, such as an interrupt handler). *)

val consume : t -> label:string -> int -> unit
(** [consume t ~label ns] is [consume_cell (cell t label) ns]. *)

val account : t -> label:string -> int -> unit
(** [account t ~label ns] is [account_cell (cell t label) ns]. *)

val busy_ns : t -> int
(** Total busy nanoseconds across all cores since creation. *)

val busy_of : t -> string -> int
(** Busy nanoseconds charged to one label. *)

val labels : t -> (string * int) list
(** Every label charged so far with its busy time, sorted by label. *)

val utilization : t -> since_busy:int -> since_time:int -> float
(** Fraction of total core capacity used over the window starting at
    simulated time [since_time] with busy snapshot [since_busy]:
    [(busy_ns t - since_busy) / (cores * (now - since_time))]. *)
