type t = {
  kind : int;
  seq : int;
  epoch : int;
  args : int array;
  payload : bytes;
  buf : int;
}

let slot_size = 128
let max_args = 6
let max_epoch = 0xFFFF

(* kind(2) seq(4) buf(4) nargs(1) plen(1) epoch(2) args(8*6) = 62 bytes of
   header.  The epoch is the channel generation stamp: the kernel side
   rejects slots whose epoch does not match the live channel's, so frames
   replayed from a dead driver generation are detected at ingress instead
   of being confused for fresh traffic. *)
let header = 62
let max_payload = slot_size - header

let make ?(seq = 0) ?(epoch = 0) ?(args = []) ?(payload = Bytes.empty) ?(buf = -1) ~kind () =
  if List.length args > max_args then invalid_arg "Msg.make: too many args";
  if Bytes.length payload > max_payload then invalid_arg "Msg.make: payload too large";
  if epoch < 0 || epoch > max_epoch then invalid_arg "Msg.make: epoch out of range";
  { kind; seq; epoch; args = Array.of_list args; payload; buf }

(* Marshal into a caller-supplied slot (e.g. a ring slot borrowed via
   {!Ring.push_inplace}) without allocating.  Only the bytes the format
   says are live get written: a reused slot may keep stale garbage past
   [plen] and [nargs], which [unmarshal_view] never reads. *)
let marshal_into t b =
  if Array.length t.args > max_args then invalid_arg "Msg.marshal_into: too many args";
  if Bytes.length t.payload > max_payload then invalid_arg "Msg.marshal_into: payload too large";
  if Bytes.length b < slot_size then invalid_arg "Msg.marshal_into: slot too small";
  Bytes.set_uint16_le b 0 (t.kind land 0xFFFF);
  Bytes.set_int32_le b 2 (Int32.of_int t.seq);
  Bytes.set_int32_le b 6 (Int32.of_int t.buf);
  Bytes.set b 10 (Char.chr (Array.length t.args));
  Bytes.set b 11 (Char.chr (Bytes.length t.payload));
  Bytes.set_uint16_le b 12 (t.epoch land max_epoch);
  Array.iteri (fun i v -> Bytes.set_int64_le b (14 + (8 * i)) (Int64.of_int v)) t.args;
  Bytes.blit t.payload 0 b header (Bytes.length t.payload)

(* Decode from a borrowed slot.  The payload is still copied out (the slot
   is recycled under us), but the empty-payload common case allocates no
   payload at all and the caller skips the 128-byte slot copy. *)
let unmarshal_view b =
  if Bytes.length b < slot_size then Error "bad slot size"
  else begin
    let nargs = Char.code (Bytes.get b 10) in
    let plen = Char.code (Bytes.get b 11) in
    if nargs > max_args then Error "bad arg count"
    else if plen > max_payload then Error "bad payload length"
    else
      Ok
        { kind = Bytes.get_uint16_le b 0;
          seq = Int32.to_int (Bytes.get_int32_le b 2);
          buf = Int32.to_int (Bytes.get_int32_le b 6);
          epoch = Bytes.get_uint16_le b 12;
          args = Array.init nargs (fun i -> Int64.to_int (Bytes.get_int64_le b (14 + (8 * i))));
          payload = (if plen = 0 then Bytes.empty else Bytes.sub b header plen) }
  end

let arg t i = if i >= 0 && i < Array.length t.args then t.args.(i) else 0

(* ---- scatter-gather batch slots ----

   N small same-kind messages packed into one ring slot, so a burst of
   per-frame downcalls (netif_rx, tx_free, ...) pays one marshal + one
   message charge instead of N.  A batch slot is distinguished from a
   scalar slot by a magic byte in the nargs position (offset 10): the
   magic is far above [max_args], so the scalar unmarshaller can never
   confuse one for the other, and [Msg.make] can never produce it.

   Layout: kind(2,u16le)@0 count(1)@2 epoch(2,u16le)@3 zeros@5..9
   magic(1)@10 zero@11, then [count] 8-byte entries:
   a0(4,u32le) a1(2,u16le) chk(2,u16le).
   The per-entry checksum lets the kernel drop exactly the entries a
   malicious driver garbled while still delivering their siblings. *)
module Batch = struct
  let magic = 0xB7
  let entry_size = 8
  let hdr_size = 12
  let max_frames = (slot_size - hdr_size) / entry_size

  (* Not a plain XOR fold: an all-0xFF (or all-zero) garbled entry must
     fail the check, so mix in an asymmetric constant. *)
  let chk a0 a1 = (a0 + a1 + 0xA5) land 0xFFFF

  (* A message is batchable when it is asynchronous, carries no payload
     or shared buffer, and its (at most two) arguments fit the compact
     u32/u16 entry encoding. *)
  let fits m =
    m.seq = 0 && m.buf = -1
    && Bytes.length m.payload = 0
    && Array.length m.args <= 2
    && m.kind >= 0 && m.kind < 0x8000
    && (let a0 = arg m 0 and a1 = arg m 1 in
        a0 >= 0 && a0 <= 0xFFFF_FFFF && a1 >= 0 && a1 <= 0xFFFF)

  let is_batch b = Bytes.length b >= slot_size && Char.code (Bytes.get b 10) = magic

  let marshal_into ?(epoch = 0) ~kind entries b =
    let n = Array.length entries in
    if n = 0 || n > max_frames then invalid_arg "Msg.Batch.marshal_into: bad frame count";
    if Bytes.length b < slot_size then invalid_arg "Msg.Batch.marshal_into: slot too small";
    if epoch < 0 || epoch > max_epoch then invalid_arg "Msg.Batch.marshal_into: epoch out of range";
    Bytes.set_uint16_le b 0 (kind land 0xFFFF);
    Bytes.set b 2 (Char.chr n);
    Bytes.set_uint16_le b 3 epoch;
    Bytes.fill b 5 5 '\000';
    Bytes.set b 10 (Char.chr magic);
    Bytes.set b 11 '\000';
    Array.iteri
      (fun i (a0, a1) ->
         if a0 < 0 || a0 > 0xFFFF_FFFF || a1 < 0 || a1 > 0xFFFF then
           invalid_arg "Msg.Batch.marshal_into: entry out of range";
         let off = hdr_size + (entry_size * i) in
         Bytes.set_int32_le b off (Int32.of_int a0);
         Bytes.set_uint16_le b (off + 4) a1;
         Bytes.set_uint16_le b (off + 6) (chk a0 a1))
      entries

  (* Garble entry [i] in a marshalled batch slot (fault injection): the
     per-entry checksum no longer matches, so the kernel-side decode
     rejects exactly this frame. *)
  let corrupt_entry b i =
    let off = hdr_size + (entry_size * i) in
    if off + entry_size <= Bytes.length b then Bytes.fill b off entry_size '\xff'

  (* Defensive decode of a borrowed batch slot.  The count byte and each
     entry checksum come from the untrusted driver: a wild count is a
     malformed slot, a bad entry checksum drops just that entry. *)
  let unmarshal_view b =
    if Bytes.length b < slot_size then Error "bad slot size"
    else if Char.code (Bytes.get b 10) <> magic then Error "not a batch slot"
    else begin
      let n = Char.code (Bytes.get b 2) in
      if n = 0 || n > max_frames then Error "bad batch count"
      else begin
        let kind = Bytes.get_uint16_le b 0 in
        let epoch = Bytes.get_uint16_le b 3 in
        let entries =
          List.init n (fun i ->
              let off = hdr_size + (entry_size * i) in
              let a0 = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF in
              let a1 = Bytes.get_uint16_le b (off + 4) in
              let stored = Bytes.get_uint16_le b (off + 6) in
              if stored = chk a0 a1 then Ok (a0, a1) else Error "bad entry checksum")
        in
        Ok (kind, epoch, entries)
      end
    end
end
