(** The kernel block layer for sud-blk devices.

    A write-back page cache (4 KiB pages) over a plugged request queue
    with C-LOOK sorting, contiguous-write merging and a bounded
    dispatch window, feeding an attachable {e issuer} (the block proxy,
    or a native driver).

    The cache holds at most 1,024 pages (4 MiB).  A CLOCK hand reclaims
    clean pages, sparing each page hit since the hand last passed it
    once.  Dirty pages are never reclaimed, so a cache full of dirty
    pages grows past the bound until the next {!fsync} cleans them.
    Reclaim takes no simulated time.  A read miss whose fill lands after
    the page was cached by another fiber keeps the cached page.

    A page filled from the device with only zeros shares one read-only
    zero block with every other such page; the first write into it gives
    it its own 4 KiB.  Reads, writeback and reclaim see the same bytes
    either way.

    A page has at most one write on the wire, as with Linux's
    [PG_writeback]: the device does not order the commands it holds, so
    a second write could otherwise land before an older one.  {!fsync}
    waits for the in-flight writes of its dirty pages before it
    snapshots them, and {!write_fua} waits for those of its pages before
    it sends its sectors, taking them from the cache as they are then.
    A page leaves the wire when its request completes, not when a caller
    stops waiting, and every wait honours the call's [timeout_ns].

    Durability contract:
    - {!write} dirties cache pages and is {e not} durable;
    - {!fsync} returning [Ok] means every page dirtied before the call
      is on media (writeback, drain, then a Flush barrier);
    - {!write_fua} is write-through — durable when it returns.

    While no issuer is attached (driver restarting) requests park in
    the staging queue; {!attach} resumes dispatch, so callers above the
    cache never observe the recovery window. *)

val sector_size : int
val page_sectors : int
val page_size : int

type op = Read | Write | Flush

type request = {
  rq_op : op;
  rq_fua : bool;
  rq_lba : int;                      (** first sector *)
  rq_count : int;                    (** sectors *)
  rq_data : bytes;                   (** [count*512]; filled by the issuer on Read *)
  mutable rq_done : (status:int -> unit) option;
}

val complete : request -> status:int -> unit
(** Fire the completion exactly once ([status] 0 = success); later calls
    are ignored — a replayed request that was already acknowledged must
    not double-fire. *)

type t

val create :
  eng:Engine.t -> name:string -> ?capacity:int -> unit -> t

val name : t -> string
val capacity : t -> int
(** In 512-byte sectors; 0 until a driver registers. *)

val set_capacity : t -> int -> unit

val attach : t -> (request -> unit) -> unit
(** Install the issuer and drain anything staged while detached. *)

val detach : t -> unit
val attached : t -> bool

(** {2 Cache operations} — fiber-blocking, with an IO timeout. *)

val read :
  t -> ?timeout_ns:int -> lba:int -> sectors:int -> unit -> (bytes, string) result

val write : t -> ?timeout_ns:int -> lba:int -> bytes -> unit -> (unit, string) result

val fsync : t -> ?timeout_ns:int -> unit -> (unit, string) result
(** Write back the dirty set, wait, then a Flush barrier, wait. *)

val write_fua : t -> ?timeout_ns:int -> lba:int -> bytes -> unit -> (unit, string) result

(** {2 Introspection} *)

val staged_requests : t -> int

val cached_pages : t -> int
(** Pages the cache holds, clean and dirty. *)

val resident_pages : t -> int
(** Cached pages that own their storage: every cached page but those
    filled with zeros from the device and not written since, which share
    one block. *)

val dirty_pages : t -> int
(** Cached pages not yet written back. *)

val metrics : t -> int * int * int * int
(** (cache_hits, cache_misses, merges, flush_barriers). *)

(** {2 Registry} — the kernel's table of block devices. *)

type registry

val registry_create : unit -> registry
val register : registry -> t -> unit
val find : registry -> string -> t option
