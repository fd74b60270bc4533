(** The wireless proxy driver (600 lines in Figure 5).

    Extends the Ethernet proxy with 802.11 management and the paper's
    §3.1.1 mirrored-shared-state technique: the supported bitrate set is
    mirrored into the kernel when the driver registers, so the kernel's
    non-preemptable wireless paths can query it {e without an upcall};
    enabling a rate from such a context queues an {e asynchronous} upcall
    instead of blocking. *)

type t

val create :
  Kernel.t ->
  chan:Uchan.t ->
  grant:Safe_pci.grant ->
  pool:Bufpool.t ->
  name:string ->
  ?defensive_copy:bool ->
  unit ->
  t

val net : t -> Proxy_net.t
val netdev : t -> Netdev.t option

val scan : t -> (int list, string) result
(** Trigger a scan and wait (with timeout) for the firmware's
    completion event; returns visible BSSIDs. *)

val associate : t -> bssid:int -> (unit, string) result
(** Synchronous (interruptible) upcall; completion is reflected in the
    mirrored state. *)

val bitrates : t -> int list
(** Mirrored — safe to call from atomic context, no upcall. *)

val set_rate : t -> int -> unit
(** Asynchronous upcall — also safe from atomic context. *)

val current_bss : t -> int option
(** Mirrored; updated by the driver's bss_changed downcalls. *)

val instance : t -> Proxy_class.t
(** This proxy behind the class-independent supervision surface. *)
