(** Shadow-driver-style recovery (paper §2: "SUD's architecture could also
    use shadow drivers to gracefully restart untrusted device drivers").

    A shadow watches a SUD network driver from fully-trusted kernel code.
    When the driver process dies or the proxy declares it hung, the shadow
    kills what is left, starts a fresh process for the same device with the
    same driver, and replays the interface state it captured (whether the
    interface was up).  Applications see a link blip, not a crash. *)

type t

val watch : Kernel.t -> ?poll_ms:int -> Driver_host.started -> t
(** Start the watcher fiber (default poll every 10 ms).  Recovery
    restarts the watched generation's own driver ({!Driver_host.restart}). *)

val current : t -> Driver_host.started
(** The driver generation currently serving the device. *)

val netdev : t -> Netdev.t
val restarts : t -> int
val stop : t -> unit
(** Stop watching (does not stop the driver). *)
