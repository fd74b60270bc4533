(** Simulated Unix processes.

    SUD's code-isolation story is ordinary Unix protection: each driver
    runs in a process under its own UID, can be killed with [kill -9],
    restarted, and constrained with [setrlimit].  This module provides
    exactly that much process machinery: identity, fiber ownership,
    signals, memory accounting against RLIMIT_AS, and exit hooks for
    kernel-side cleanup (the proxy detaching a dead driver). *)

type table
type t

val create_table : Engine.t -> Cpu.t -> table
(** Processes of the table charge their CPU time to that {!Cpu.t}. *)

val kernel_process : table -> t
(** PID 0, UID 0 — kernel threads belong here. *)

val spawn : table -> name:string -> uid:int -> t
(** A new process with no fibers yet. *)

val pid : t -> int
val uid : t -> int
val name : t -> string

val cell : t -> Cpu.cell
(** The ledger line ["proc:<name>"] the process's CPU time is charged to,
    resolved once when the process is created. *)

val is_alive : t -> bool
val find : table -> pid:int -> t option

val spawn_fiber : t -> ?name:string -> (unit -> unit) -> Fiber.t
(** Run a fiber belonging to this process; it is killed with the process.
    Raises [Failure] if the process is dead. *)

val current : table -> t
(** The process owning the running fiber (the kernel process when the
    fiber is unowned or we are outside fiber context). *)

val kill : t -> unit
(** SIGKILL: every fiber of the process is killed, exit hooks run,
    memory charges are dropped.  Idempotent. *)

val on_exit : t -> (unit -> unit) -> unit

(** {1 Resource limits} *)

exception Rlimit_exceeded of string

val setrlimit_memory : t -> bytes:int option -> unit
val charge_memory : t -> bytes:int -> unit
(** Raises {!Rlimit_exceeded} if the charge would exceed the limit. *)

val uncharge_memory : t -> bytes:int -> unit
val memory_used : t -> int

(** {1 Scheduling policy} *)

type sched_policy = Normal | Realtime

val set_scheduler : t -> sched_policy -> unit
