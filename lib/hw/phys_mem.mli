(** Sparse, byte-accurate physical memory with a page allocator.

    A byte never written reads as zero and takes no storage.  A write
    materializes (zero-filled) only the 256-byte chunks it touches, unless
    it covers at least 1 KiB of a page: that page is then stored as one
    4 KiB block, so whole-page transfers stay one copy.  Accesses beyond
    the configured size raise {!Bus_error} — the simulated equivalent of a
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
(** Return a run to the allocator.  Freeing drops the pages' storage, so
    a use-after-free in a driver reads zeros rather than stale secrets. *)

val allocated_pages : t -> int
(** Pages currently handed out by the allocator. *)

val resident_bytes : t -> int
(** Bytes of storage materialized: 256 per written chunk, 4096 per page
    stored as one block.  The page table itself is not counted. *)
