(** Legacy x86 IO-port space (64 K ports).

    Devices claim port ranges; the CPU side accesses ports through an
    access check that models the TSS IO-permission bitmap (IOPB): the
    kernel runs with full access, while user processes only reach ports
    SUD granted them. *)

type t

exception General_protection of int
(** Access to a port not present in the caller's permission bitmap. *)

val create : unit -> t

val register :
  t -> base:int -> len:int ->
  read:(off:int -> size:int -> int) ->
  write:(off:int -> size:int -> int -> unit) ->
  unit
(** Claim [base, base+len).  Raises [Invalid_argument] on overlap. *)

module Iopb : sig
  (** A task's IO-permission bitmap. *)

  type t

  val none : unit -> t
  (** No ports allowed (fresh user task). *)

  val all : unit -> t
  (** Every port allowed (kernel / IOPL 3). *)

  val grant : t -> base:int -> len:int -> unit
  val revoke : t -> base:int -> len:int -> unit
  val allows : t -> port:int -> size:int -> bool
  val granted_ranges : t -> (int * int) list
  (** Granted (base, len) runs, merged and sorted. *)
end

val read : t -> iopb:Iopb.t -> port:int -> size:int -> int
(** Raises {!General_protection} if the IOPB forbids the access; reads of
    unclaimed ports return all-1s (floating bus). *)

val write : t -> iopb:Iopb.t -> port:int -> size:int -> int -> unit
