type t = { mutable state : int64 }

let create ~seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let next_state t =
  t.state <- Int64.add t.state golden;
  t.state

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = mix (next_state t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to a non-negative native int: Int64.to_int truncates to 63 bits,
     so a raw shift can still come out negative. *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod n

let bool t = Int64.logand (int64 t) 1L = 1L

let derive ~root tag =
  (* Fold the tag into the splitmix64 stream: every harness sub-seed is a
     pure function of (root seed, tag string), so one printed root seed
     reproduces the whole tree of derived streams. *)
  let h = ref (mix (Int64.add root golden)) in
  String.iter
    (fun c -> h := mix (Int64.add (Int64.mul !h 0x100000001B3L) (Int64.of_int (Char.code c))))
    tag;
  !h
