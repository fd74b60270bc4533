(* Array-based binary min-heap, specialized by a comparison function.
   Used by the engine's event queue; not exposed outside the library.
   Vacated slots are reset to [dummy] so the heap never keeps a removed
   element alive. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  cmp : 'a -> 'a -> int;
  dummy : 'a;
}

let create ~cmp ~dummy = { data = Array.make 64 dummy; len = 0; cmp; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let bigger = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.len && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some t.data.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    t.data.(0) <- t.data.(t.len);
    t.data.(t.len) <- t.dummy;
    if t.len > 0 then sift_down t 0;
    Some top
  end

(* Drop every element failing [keep], then restore heap order bottom-up
   (O(n)).  Pop order over the survivors is unchanged whenever [cmp] is a
   total order. *)
let filter t keep =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if keep x then begin
      t.data.(!n) <- x;
      incr n
    end
  done;
  Array.fill t.data !n (t.len - !n) t.dummy;
  t.len <- !n;
  for i = (t.len / 2) - 1 downto 0 do sift_down t i done
