module Moments = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = t.mean

  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let z_value confidence = if confidence < 0.97 then 1.96 else 2.576

  let ci_halfwidth t ~confidence =
    if t.n < 2 then infinity
    else z_value confidence *. stddev t /. sqrt (float_of_int t.n)

  let converged t ~confidence ~accuracy =
    t.n >= 3
    && (t.mean = 0.0 || ci_halfwidth t ~confidence <= accuracy *. abs_float t.mean)
end

module Histogram = struct
  type t = { mutable samples : float array; mutable len : int; mutable sorted : bool }

  let create () = { samples = Array.make 64 0.0; len = 0; sorted = true }

  let add t x =
    if t.len = Array.length t.samples then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.samples 0 bigger 0 t.len;
      t.samples <- bigger
    end;
    t.samples.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.len in
      Array.sort compare live;
      Array.blit live 0 t.samples 0 t.len;
      t.sorted <- true
    end

  let quantile t q =
    if t.len = 0 then invalid_arg "Histogram.quantile: empty";
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: out of range";
    ensure_sorted t;
    let idx = int_of_float (q *. float_of_int (t.len - 1)) in
    t.samples.(idx)

  let max t = quantile t 1.0
  let min t = quantile t 0.0
end
