(** A full-duplex point-to-point (or small switched) Ethernet segment.

    Frames experience serialization delay at the sender's line rate plus
    propagation latency, which is what bounds streaming throughput at
    ~1 Gb/s in the Figure 8 benchmarks regardless of driver placement. *)

type t
type port

val create : Engine.t -> ?rate_bps:int -> ?latency_ns:int -> unit -> t
(** Defaults: 1 Gb/s, 20 us propagation latency. *)

val attach : t -> name:string -> rx:(bytes -> unit) -> port
(** Add a station.  [rx] is invoked (via the engine) for every frame sent
    by any other station. *)

val send : t -> port -> bytes -> unit
(** Transmit a frame from this port to all other ports.  Frames shorter
    than 60 bytes are padded to the Ethernet minimum for timing purposes. *)

val frames_sent : t -> int
