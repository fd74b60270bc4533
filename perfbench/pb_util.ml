(* Measurement helpers: clocks, growable sample buffers, percentiles,
   the benchmark's own span recorder, and a small JSON printer. *)

let wall () = Unix.gettimeofday ()
let process_start = wall ()

(* ---- growable int buffers ---- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let to_sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- the benchmark's spans ----

   One span per call the benchmark makes into a layer, kept in memory and
   written as JSONL at the end of a traced run.  Times: simulated ns, and
   wall ns since process start. *)

module Spans = struct
  let on = ref false
  let names : (string, int) Hashtbl.t = Hashtbl.create 16
  let name_list = ref []
  let parent = Ibuf.create ()
  let name = Ibuf.create ()
  let sim0 = Ibuf.create ()
  let sim1 = Ibuf.create ()
  let wall0 = Ibuf.create ()
  let wall1 = Ibuf.create ()

  let wall_ns () = int_of_float ((wall () -. process_start) *. 1e9)

  let name_id s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names in
      Hashtbl.replace names s i;
      name_list := !name_list @ [ s ];
      i

  (* Open a span; returns its id (1-based), or 0 when tracing is off. *)
  let start ?(parent_id = 0) nm ~sim =
    if not !on then 0
    else begin
      Ibuf.push parent parent_id;
      Ibuf.push name (name_id nm);
      Ibuf.push sim0 sim;
      Ibuf.push sim1 sim;
      let w = wall_ns () in
      Ibuf.push wall0 w;
      Ibuf.push wall1 w;
      Ibuf.length parent
    end

  let finish id ~sim =
    if id > 0 then begin
      sim1.Ibuf.a.(id - 1) <- sim;
      wall1.Ibuf.a.(id - 1) <- wall_ns ()
    end

  let set_parent id p = if id > 0 then parent.Ibuf.a.(id - 1) <- p
  let count () = Ibuf.length parent

  (* Per name: (name, count, total simulated ns, total wall ns). *)
  let summary () =
    let k = List.length !name_list in
    let cnt = Array.make k 0 and sd = Array.make k 0 and wd = Array.make k 0 in
    for i = 0 to count () - 1 do
      let j = Ibuf.get name i in
      cnt.(j) <- cnt.(j) + 1;
      sd.(j) <- sd.(j) + Ibuf.get sim1 i - Ibuf.get sim0 i;
      wd.(j) <- wd.(j) + Ibuf.get wall1 i - Ibuf.get wall0 i
    done;
    List.mapi (fun j nm -> (nm, cnt.(j), sd.(j), wd.(j))) !name_list

  let write path =
    let nms = Array.of_list !name_list in
    let oc = open_out path in
    for i = 0 to count () - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"sim_start\":%d,\"sim_end\":%d,\"wall_start\":%d,\"wall_end\":%d}\n"
        (i + 1) (Ibuf.get parent i) nms.(Ibuf.get name i) (Ibuf.get sim0 i) (Ibuf.get sim1 i)
        (Ibuf.get wall0 i) (Ibuf.get wall1 i)
    done;
    close_out oc
end

(* ---- JSON ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec to_json b = function
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Buffer.add_string b (Printf.sprintf "%.1f" f)
    else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         to_json b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b (Printf.sprintf "%S:" k);
         to_json b v)
      l;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 4096 in
  to_json b j;
  Buffer.contents b
