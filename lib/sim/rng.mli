(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Rng.t] so
    that simulation runs are reproducible given a seed. *)

type t

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator.  Two generators created with the
    same seed produce identical streams. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if [n <= 0]. *)

val bool : t -> bool

val derive : root:int64 -> string -> int64
(** [derive ~root tag] deterministically maps one root seed and a textual
    tag (e.g. ["soak"], ["fuzz"], ["explore:3"]) to an independent
    sub-seed.  All soak/fuzz/bench entry points derive their seeds this
    way from a single printed root, so any failure line names everything
    needed to reproduce it. *)

val mix : int64 -> int64
(** The splitmix64 finalizer — a cheap 64-bit mixing function, exposed for
    building streaming fingerprints (e.g. {!Engine.trace_hash}). *)
