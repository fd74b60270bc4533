type t = {
  slots : bytes array;
  mask : int;
  mutable head : int;   (* next write position (producer) *)
  mutable tail : int;   (* next read position (consumer) *)
}

let create ~slots =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Ring.create: slots must be a positive power of two";
  { slots = Array.init slots (fun _ -> Bytes.make Msg.slot_size '\000'); mask = slots - 1; head = 0; tail = 0 }

let capacity t = Array.length t.slots
let length t = t.head - t.tail
let is_empty t = t.head = t.tail
let is_full t = length t = capacity t

let try_push t b =
  if is_full t then false
  else begin
    let slot = t.slots.(t.head land t.mask) in
    Bytes.blit b 0 slot 0 (min (Bytes.length b) Msg.slot_size);
    t.head <- t.head + 1;
    true
  end

let push_inplace t writer =
  if is_full t then false
  else begin
    writer t.slots.(t.head land t.mask);
    t.head <- t.head + 1;
    true
  end

let try_pop t =
  if is_empty t then None
  else begin
    let slot = Bytes.copy t.slots.(t.tail land t.mask) in
    t.tail <- t.tail + 1;
    Some slot
  end

let pop_inplace t reader =
  if is_empty t then None
  else begin
    let v = reader t.slots.(t.tail land t.mask) in
    t.tail <- t.tail + 1;
    Some v
  end
