(** The audio card proxy driver (550 lines in Figure 5).

    PCM data flows kernel→driver through shared buffers, one asynchronous
    upcall per chunk; period-elapsed events come back as downcalls so an
    application fiber can pace itself against the (simulated) DAC.  Mixer
    operations are synchronous interruptible upcalls. *)

type t

val create :
  Kernel.t ->
  chan:Uchan.t ->
  grant:Safe_pci.grant ->
  pool:Bufpool.t ->
  name:string ->
  unit ->
  t

val wait_ready : t -> timeout_ns:int -> bool
(** The driver probed its codec and registered. *)

val start : t -> (unit, string) result
val stop : t -> (unit, string) result

val write : t -> bytes -> int
(** Queue PCM towards the device; returns bytes accepted (0 when all
    shared buffers are in flight — wait for a period and retry). *)

val set_volume : t -> int -> (unit, string) result
val get_volume : t -> (int, string) result

val periods_elapsed : t -> int
val wait_period : t -> timeout_ns:int -> bool
(** Block until the next period-elapsed event (false on timeout). *)

val instance : t -> Proxy_class.t
(** This proxy behind the class-independent supervision surface. *)
