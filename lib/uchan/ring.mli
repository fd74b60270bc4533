(** Single-producer single-consumer ring of fixed-size message slots,
    modelling the memory shared between kernel and driver process
    (paper §3.1.2).  Pure data structure — notification is layered on top
    by {!Uchan}. *)

type t

val create : slots:int -> t
(** [slots] must be a power of two. *)

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val try_push : t -> bytes -> bool
(** False when full.  The slot bytes are copied in. *)

val try_pop : t -> bytes option
(** The returned bytes are a fresh copy the caller may retain. *)

(** {1 Borrowed-slot (zero-copy) API}

    The callback receives the ring's own {!Msg.slot_size}-byte slot buffer;
    it is only valid for the duration of the call and must not be retained
    — the slot is recycled as the ring wraps.  Callers that need to keep
    the bytes use {!try_push}/{!try_pop} instead. *)

val push_inplace : t -> (bytes -> unit) -> bool
(** Marshal directly into the next free slot.  False (writer not called)
    when full.  The writer sees the slot's previous contents; it must
    overwrite every byte it later wants read. *)

val pop_inplace : t -> (bytes -> 'a) -> 'a option
(** Decode directly out of the oldest slot; the slot is released when the
    reader returns.  [None] (reader not called) when empty. *)
