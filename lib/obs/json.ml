type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let schema n = ("schema", Str (Printf.sprintf "sud-bench/%d" n))

let fnum ?(dp = 3) v =
  if not (Float.is_finite v) then Null
  else begin
    let scale = Float.pow 10. (float_of_int dp) in
    Float (Float.round (v *. scale) /. scale)
  end

(* ---- printing ---- *)

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* A float always renders with a decimal point (or exponent) so it
   parses back as a Float, not an Int: 100. -> "100.0". *)
let float_str v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.12g" v in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let add_items b ~first ~sep ~last add_item items =
  Buffer.add_string b first;
  List.iteri
    (fun i x ->
       if i > 0 then Buffer.add_string b sep;
       add_item x)
    items;
  Buffer.add_string b last

let add_field add_value b (k, v) =
  add_str b k;
  Buffer.add_string b ": ";
  add_value v

exception Too_wide

(* The one-line rendering, written straight into [b]; it gives up with
   [Too_wide] as soon as [b] is longer than [stop]. *)
let rec add_compact ~stop b v =
  (match v with
   | Null -> Buffer.add_string b "null"
   | Bool v -> Buffer.add_string b (string_of_bool v)
   | Int i -> Buffer.add_string b (string_of_int i)
   | Float f -> Buffer.add_string b (float_str f)
   | Str s -> add_str b s
   | List vs -> add_items b ~first:"[" ~sep:", " ~last:"]" (add_compact ~stop b) vs
   | Obj [] -> Buffer.add_string b "{}"
   | Obj fs ->
     add_items b ~first:"{ " ~sep:", " ~last:" }" (add_field (add_compact ~stop b) b) fs);
  if Buffer.length b > stop then raise Too_wide

(* Sweep-point rows and short arrays stay on one line (the diffable
   table style of the checked-in baselines); anything wider breaks.  A
   collection is written inline first and taken back once it passes the
   budget, so no value is measured apart from being printed. *)
let inline_budget = 120

let rec render b indent v =
  let start = Buffer.length b in
  try add_compact ~stop:(start + inline_budget - indent) b v
  with Too_wide -> (
    Buffer.truncate b start;
    let pad = "\n" ^ String.make (indent + 2) ' ' in
    let last close = "\n" ^ String.make indent ' ' ^ close in
    match v with
    | List (_ :: _ as vs) ->
      add_items b ~first:("[" ^ pad) ~sep:("," ^ pad) ~last:(last "]") (render b (indent + 2)) vs
    | Obj (_ :: _ as fs) ->
      add_items b ~first:("{" ^ pad) ~sep:("," ^ pad) ~last:(last "}")
        (add_field (render b (indent + 2)) b) fs
    | Null | Bool _ | Int _ | Float _ | Str _ | List [] | Obj [] ->
      add_compact ~stop:max_int b v)

let to_string v =
  let b = Buffer.create 2048 in
  render b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_line v =
  let b = Buffer.create 256 in
  add_compact ~stop:max_int b v;
  Buffer.contents b

let write ~path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

let write_jsonl ~path vs =
  let oc = open_out path in
  List.iter
    (fun v ->
       output_string oc (to_line v);
       output_char oc '\n')
    vs;
  close_out oc

(* ---- parsing ---- *)

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else begin
             (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let cp =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* UTF-8 encode the code point (escaped control bytes
                   and the BMP are all the baselines ever carry). *)
                if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
             advance ()
           end);
          loop ()
        | c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("bad number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None ->
        (match float_of_string_opt lit with
         | Some f -> Float f
         | None -> fail ("bad number " ^ lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
    else Ok v
  with Parse (at, msg) -> Error (Printf.sprintf "parse error at byte %d: %s" at msg)

let with_file path f =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
  with Sys_error e -> Error e

let of_file path =
  with_file path (fun ic ->
      match of_string (really_input_string ic (in_channel_length ic)) with
      | Ok v -> Ok v
      | Error e -> Error (path ^ ": " ^ e))

let of_jsonl_file path =
  with_file path (fun ic ->
      let rec lines acc n =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | l when String.trim l = "" -> lines acc (n + 1)
        | l ->
          (match of_string l with
           | Ok v -> lines (v :: acc) (n + 1)
           | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
      in
      lines [] 1)

(* ---- readers ---- *)

let member v k =
  match v with Obj fs -> List.assoc_opt k fs | _ -> None

let path v keys = List.fold_left (fun acc k -> Option.bind acc (fun v -> member v k)) (Some v) keys

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let as_int = function Int i -> Some i | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_list = function List vs -> Some vs | _ -> None

let find_point points keys =
  List.find_opt
    (fun p -> List.for_all (fun (k, v) -> member p k = Some v) keys)
    points
