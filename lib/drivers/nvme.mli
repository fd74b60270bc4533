(** The NVMe block driver (sud-blk).

    Written once against {!Driver_api} and hosted either natively or as
    an untrusted SUD process.  One submission/completion queue pair per
    deliverable MSI-X vector; the 16-bit wire cid is the SQ slot index,
    with the host's unbounded idempotency tag kept in a per-slot side
    table. *)

val driver : Driver_api.blk_driver
