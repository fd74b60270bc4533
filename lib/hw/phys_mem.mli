(** Sparse, byte-accurate physical memory with a page allocator.

    Pages materialize (zero-filled) on first touch.  Accesses beyond the
    configured size raise {!Bus_error} — the simulated equivalent of a
    machine check, which the tests use to prove that confined DMA can never
    reach unmapped territory.

    A simple region allocator hands out physically-contiguous page runs for
    kernel structures and DMA buffers. *)

exception Bus_error of int
(** Physical address out of range. *)

type t

val create : size:int -> t
(** [size] in bytes, rounded up to a page. *)

val read : t -> addr:int -> len:int -> bytes
val write : t -> addr:int -> bytes -> unit
val blit_out : t -> addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_in : t -> addr:int -> src:bytes -> src_off:int -> len:int -> unit

val read8 : t -> int -> int
val read32 : t -> int -> int
val write8 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit
val write64 : t -> int -> int64 -> unit
(** Little-endian scalar accessors, matching x86. *)

val alloc_pages : t -> pages:int -> int
(** Allocate a contiguous run of zeroed pages; returns the physical address.
    Raises [Failure] when physical memory is exhausted. *)

val free_pages : t -> addr:int -> pages:int -> unit
(** Return a run to the allocator.  Freeing re-zeroes the pages, so a
    use-after-free in a driver reads zeros rather than stale secrets. *)

val allocated_pages : t -> int
(** Pages currently handed out by the allocator. *)
