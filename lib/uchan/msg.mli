(** Uchan messages ([msg_t] in the paper).

    A message carries an opcode, a correlation sequence number (0 for
    asynchronous messages), a channel-generation epoch, up to {!max_args}
    integer arguments, an optional small inline payload and an optional
    shared-buffer reference.  Messages are marshalled into fixed
    {!slot_size}-byte ring slots — bulk data never travels inline; it
    goes through shared buffers ({!Bufpool}). *)

type t = {
  kind : int;             (** RPC opcode, proxy-class specific *)
  seq : int;              (** correlation id; 0 = asynchronous *)
  epoch : int;            (** channel generation stamp (u16); see {!Conformance} *)
  args : int array;       (** at most {!max_args} entries *)
  payload : bytes;        (** inline payload, at most {!max_payload} *)
  buf : int;              (** shared buffer id, or -1 *)
}

val slot_size : int
val max_args : int
val max_payload : int

val max_epoch : int
(** Epochs are 16-bit on the wire; generation numbers wrap modulo
    [max_epoch + 1]. *)

val make :
  ?seq:int -> ?epoch:int -> ?args:int list -> ?payload:bytes -> ?buf:int ->
  kind:int -> unit -> t

val marshal_into : t -> bytes -> unit
(** Marshal into the first {!slot_size} bytes of a caller-supplied buffer
    (typically a ring slot borrowed through {!Ring.push_inplace}),
    allocating nothing.  Stale bytes beyond the encoded payload/args are
    left in place — {!unmarshal_view} never reads them.  Raises
    [Invalid_argument] if the message exceeds the slot format or the
    buffer is shorter than {!slot_size}. *)

val unmarshal_view : bytes -> (t, string) result
(** Decode a borrowed slot (from {!Ring.pop_inplace}).  Defensive: a
    malicious driver writes arbitrary bytes into the shared ring, so it
    validates every length field.  Accepts any buffer of at least
    {!slot_size} bytes and copies only the live payload out, sharing the
    empty payload when there is none.  The returned message owns no part
    of [b]. *)

val arg : t -> int -> int
(** [arg t i] with a 0 default for missing arguments. *)

(** Scatter-gather batch slots: N small same-kind asynchronous messages
    packed into one ring slot, so a burst of per-frame downcalls pays
    one marshal and one message charge instead of N.  Batch slots are
    distinguished from scalar slots by a magic byte in the nargs
    position, which the scalar unmarshaller always rejects.  Each
    compact entry carries two arguments (u32/u16) and a per-entry
    checksum so the kernel can drop exactly the entries a malicious
    driver garbled while still delivering their siblings. *)
module Batch : sig
  val max_frames : int
  (** Frames per slot with the 8-byte entry encoding (14 for 128-byte
      slots). *)

  val fits : t -> bool
  (** A message is batchable when it is asynchronous ([seq = 0]),
      carries no payload or shared buffer, and its (at most two)
      arguments fit the u32/u16 entry encoding. *)

  val is_batch : bytes -> bool
  (** Cheap discriminator for a borrowed ring slot. *)

  val marshal_into : ?epoch:int -> kind:int -> (int * int) array -> bytes -> unit
  (** [marshal_into ?epoch ~kind entries slot] packs [entries] (each an
      [(a0, a1)] argument pair) into [slot], stamping the channel
      [epoch] (default 0).  Raises [Invalid_argument] on an empty or
      oversized batch or an out-of-range argument. *)

  val corrupt_entry : bytes -> int -> unit
  (** Fault injection: garble entry [i] of a marshalled batch slot so
      its checksum no longer verifies. *)

  val unmarshal_view : bytes -> (int * int * (int * int, string) result list, string) result
  (** Defensive decode of a borrowed slot: returns the shared kind, the
      stamped epoch, and one result per entry — [Error] for entries
      whose checksum fails (the siblings still decode).  The slot-level
      [Error] cases are a non-batch slot or a wild count byte. *)
end
