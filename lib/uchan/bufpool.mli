(** Shared DMA-capable buffer pool ([sud_alloc]/[sud_free], paper
    Figure 3).

    The pool lives inside one of the driver's dma_coherent regions, so
    the same bytes serve three masters with no copies between them: the
    uchan payload area the kernel proxy reads, the virtual address the
    driver writes, and the IO virtual address the device DMAs to.

    The pool is constructed over the region's accessors; [base_addr] is
    the region's bus address, so [buf.addr] values can be handed straight
    to the device (and are what travels in uchan messages). *)

type t

type buf = { id : int; addr : int; size : int }

val create :
  read:(off:int -> len:int -> bytes) ->
  write:(off:int -> data:bytes -> unit) ->
  base_addr:int ->
  count:int ->
  buf_size:int ->
  t

val region_size : count:int -> buf_size:int -> int

val buf_size : t -> int

val alloc : t -> buf option
(** None when exhausted. *)

val free : t -> int -> unit
(** Double frees and wild ids are ignored (the driver is untrusted). *)

val get : t -> int -> buf option
(** Validate a buffer id received from the untrusted side. *)

val request_addr : buf -> len:int -> int
(** The bus address at which a request of [len] bytes starts inside
    [buf], the same on the kernel side and the driver side.  A buffer of
    one page or less starts it at [buf.addr].  In a buffer of P pages,
    buffer i starts it at page ⌊i/P⌋ mod P of the buffer, moved back
    just far enough that the request still fits.  A pool's first pages
    per buffer fall into few sets of the direct-mapped IOTLB (buffers of
    8 pages: 8 of its 64 sets); this spreads the single-page requests of
    consecutive buffers over every set. *)

val in_use : t -> int

val read : t -> buf -> off:int -> len:int -> bytes
val write : t -> buf -> off:int -> bytes -> unit
(** Bounds-checked accessors; raise [Invalid_argument] outside the buffer. *)
