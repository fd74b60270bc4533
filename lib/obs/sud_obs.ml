(* Unified observability: the metrics registry and the causal trace ring.
   See sud_obs.mli for the design rationale.  Dependency-free on purpose —
   every layer of the repo (hw, kernel, uchan, core) sits above it. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | '\r' -> Buffer.add_string b "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      match s.[i] with
      | '\\' when i + 1 < n ->
        (match s.[i + 1] with
         | '"' -> Buffer.add_char b '"'; go (i + 2)
         | '\\' -> Buffer.add_char b '\\'; go (i + 2)
         | 'n' -> Buffer.add_char b '\n'; go (i + 2)
         | 't' -> Buffer.add_char b '\t'; go (i + 2)
         | 'r' -> Buffer.add_char b '\r'; go (i + 2)
         | 'u' when i + 5 < n ->
           (match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
            | Some code when code < 256 -> Buffer.add_char b (Char.chr code)
            | Some _ | None -> ());
           go (i + 6)
         | c -> Buffer.add_char b c; go (i + 2))
      | c -> Buffer.add_char b c; go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

module Metrics = struct
  type counter = { mutable c_v : int }
  type gauge = { g_read : unit -> int }

  let hist_slots = 64

  type histogram = {
    h_buckets : int array;
    mutable h_count : int;
    mutable h_sum : int;
  }

  type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

  (* The registry references every metric weakly: the handle the owning
     subsystem keeps is the only strong pointer.  A gauge closes over its
     subsystem's state, so a strong registry would root every world ever
     created (page tables, backlog queues, ...) for the life of the
     process — measurably taxing the GC.  Instead a metric simply dies
     with its subsystem and the registry prunes the husk. *)
  type entry = {
    e_subsystem : string;
    e_name : string;
    e_labels : (string * string) list;
    e_read : unit -> metric option;   (* weak deref *)
  }

  type registry = { mutable entries : entry list }   (* newest first *)

  let create_registry () = { entries = [] }
  let default = create_registry ()

  let weaken : type a. a -> (a -> metric) -> unit -> metric option =
    fun x wrap ->
    let w = Weak.create 1 in
    Weak.set w 0 (Some x);
    fun () -> Option.map wrap (Weak.get w 0)

  let alive e = e.e_read () <> None

  let same_key a b =
    a.e_subsystem = b.e_subsystem && a.e_name = b.e_name && a.e_labels = b.e_labels

  (* Replace-on-collision keeps the registry pointing at the live
     instance when worlds or driver generations are recreated with the
     same identity, and (with dead-entry pruning) bounds its size. *)
  let register reg e =
    reg.entries <- e :: List.filter (fun x -> alive x && not (same_key x e)) reg.entries

  let counter ?(registry = default) ?(labels = []) ~subsystem ~name () =
    let c = { c_v = 0 } in
    register registry
      { e_subsystem = subsystem; e_name = name; e_labels = labels;
        e_read = weaken c (fun c -> M_counter c) };
    c

  let gauge ?(registry = default) ?(labels = []) ~subsystem ~name read =
    let g = { g_read = read } in
    register registry
      { e_subsystem = subsystem; e_name = name; e_labels = labels;
        e_read = weaken g (fun g -> M_gauge g) };
    g

  let histogram ?(registry = default) ?(labels = []) ~subsystem ~name () =
    let h = { h_buckets = Array.make hist_slots 0; h_count = 0; h_sum = 0 } in
    register registry
      { e_subsystem = subsystem; e_name = name; e_labels = labels;
        e_read = weaken h (fun h -> M_histogram h) };
    h

  let incr c = c.c_v <- c.c_v + 1
  let add c n = c.c_v <- c.c_v + n
  let get c = c.c_v
  let gauge_value g = g.g_read ()

  let bucket_of v =
    if v <= 1 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 1 do
        b := !b + 1;
        v := !v lsr 1
      done;
      min !b (hist_slots - 1)
    end

  let observe h v =
    h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v

  let hist_count h = h.h_count
  let hist_sum h = h.h_sum
  let hist_buckets h = Array.copy h.h_buckets

  type value =
    | Counter of int
    | Gauge of int
    | Histogram of { buckets : (int * int) list; count : int; sum : int }

  type sample = { s_name : string; s_labels : (string * string) list; s_value : value }
  type group = { g_subsystem : string; g_samples : sample list }
  type snapshot = group list

  let snapshot ?(registry = default) () =
    registry.entries <- List.filter alive registry.entries;
    let sample_of e =
      match e.e_read () with
      | None -> None
      | Some m ->
        Some
          { s_name = e.e_name;
            s_labels = e.e_labels;
            s_value =
              (match m with
               | M_counter c -> Counter c.c_v
               | M_gauge g -> Gauge (g.g_read ())
               | M_histogram h ->
                 let buckets = ref [] in
                 for i = hist_slots - 1 downto 0 do
                   if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
                 done;
                 Histogram { buckets = !buckets; count = h.h_count; sum = h.h_sum }) }
    in
    let subsystems =
      List.sort_uniq compare (List.map (fun e -> e.e_subsystem) registry.entries)
    in
    List.filter_map
      (fun sub ->
         let samples =
           registry.entries
           |> List.filter (fun e -> e.e_subsystem = sub)
           |> List.filter_map sample_of
           |> List.sort (fun a b -> compare (a.s_name, a.s_labels) (b.s_name, b.s_labels))
         in
         if samples = [] then None else Some { g_subsystem = sub; g_samples = samples })
      subsystems

  let labels_to_string labels =
    if labels = [] then ""
    else
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      ^ "}"

  let to_json snap =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{";
    List.iteri
      (fun gi g ->
         if gi > 0 then Buffer.add_string b ",";
         Buffer.add_string b (Printf.sprintf "\n  \"%s\": {" (json_escape g.g_subsystem));
         List.iteri
           (fun si s ->
              if si > 0 then Buffer.add_string b ",";
              let key = s.s_name ^ labels_to_string s.s_labels in
              Buffer.add_string b (Printf.sprintf "\n    \"%s\": " (json_escape key));
              (match s.s_value with
               | Counter v -> Buffer.add_string b (Printf.sprintf "{ \"counter\": %d }" v)
               | Gauge v -> Buffer.add_string b (Printf.sprintf "{ \"gauge\": %d }" v)
               | Histogram { buckets; count; sum } ->
                 Buffer.add_string b
                   (Printf.sprintf
                      "{ \"histogram\": { \"count\": %d, \"sum\": %d, \"log2_buckets\": { %s } } }"
                      count sum
                      (String.concat ", "
                         (List.map (fun (i, n) -> Printf.sprintf "\"%d\": %d" i n) buckets)))))
           g.g_samples;
         Buffer.add_string b "\n  }")
      snap;
    Buffer.add_string b "\n}\n";
    Buffer.contents b

  (* FNV-1a over the canonical JSON rendering: [snapshot] already sorts
     groups and samples, so equal registries hash equal regardless of
     registration order.  Used by sud-check to assert that a replayed
     schedule reproduces the exact metrics end-state. *)
  let snapshot_hash ?registry () =
    (* A full major collection first: metrics are weakly registered, so
       without it the hash would depend on whether a *previous* run's
       dead subsystems happen to have been collected yet — GC timing,
       not program behaviour. *)
    Gc.full_major ();
    let s = to_json (snapshot ?registry ()) in
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
         h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      s;
    !h

  let render_table snap =
    let b = Buffer.create 1024 in
    List.iter
      (fun g ->
         Buffer.add_string b (Printf.sprintf "[%s]\n" g.g_subsystem);
         List.iter
           (fun s ->
              let key = s.s_name ^ labels_to_string s.s_labels in
              match s.s_value with
              | Counter v -> Buffer.add_string b (Printf.sprintf "  %-48s %12d\n" key v)
              | Gauge v ->
                Buffer.add_string b (Printf.sprintf "  %-48s %12d (gauge)\n" key v)
              | Histogram { count; sum; buckets } ->
                Buffer.add_string b
                  (Printf.sprintf "  %-48s count %d, sum %d, mean %s\n" key count sum
                     (if count = 0 then "-" else string_of_int (sum / count)));
                List.iter
                  (fun (i, n) ->
                     Buffer.add_string b
                       (Printf.sprintf "    %-46s %12d\n"
                          (Printf.sprintf "[2^%d, 2^%d)" i (i + 1)) n))
                  buckets)
           g.g_samples)
      snap;
    Buffer.contents b
end

module Trace = struct
  type span = {
    sp_id : int;
    sp_parent : int;
    sp_ts : int;
    sp_dur : int;
    sp_cat : string;
    sp_name : string;
    sp_attrs : (string * string) list;
  }

  let dummy =
    { sp_id = 0; sp_parent = 0; sp_ts = 0; sp_dur = 0; sp_cat = ""; sp_name = ""; sp_attrs = [] }

  let enabled = ref false
  let clock = ref (fun () -> 0)
  let cap = ref 16384

  (* Allocated lazily on the first traced span: a tracer that is never
     enabled must cost the rest of the system nothing, including the GC
     marking work a permanently-live 16k-pointer array would add. *)
  let ring = ref [||]
  let n_emitted = ref 0
  let cur = ref 0
  let keys : (string, int) Hashtbl.t = Hashtbl.create 32

  let on () = !enabled
  let set_enabled b = enabled := b
  let set_clock f = clock := f

  let reset () =
    if Array.length !ring > 0 then Array.fill !ring 0 (Array.length !ring) dummy;
    n_emitted := 0;
    cur := 0;
    Hashtbl.reset keys

  let set_capacity n =
    if n <= 0 then invalid_arg "Trace.set_capacity";
    cap := n;
    ring := [||];
    n_emitted := 0;
    cur := 0;
    Hashtbl.reset keys

  let emit ?(parent = 0) ?(dur_ns = 0) ?(attrs = []) ~cat ~name () =
    if not !enabled then 0
    else begin
      if Array.length !ring <> !cap then ring := Array.make !cap dummy;
      Stdlib.incr n_emitted;
      let id = !n_emitted in
      let sp =
        { sp_id = id; sp_parent = parent; sp_ts = !clock (); sp_dur = dur_ns;
          sp_cat = cat; sp_name = name; sp_attrs = attrs }
      in
      (!ring).((id - 1) mod Array.length !ring) <- sp;
      id
    end

  let emitted () = !n_emitted
  let retained () = min !n_emitted (Array.length !ring)
  let dropped () = !n_emitted - retained ()

  let spans () =
    let cap = Array.length !ring in
    let r = retained () in
    List.init r (fun i ->
        (* Oldest retained span is emitted-index (emitted - retained). *)
        (!ring).((!n_emitted - r + i) mod cap))

  let current () = !cur

  let with_current id f =
    let saved = !cur in
    cur := id;
    Fun.protect ~finally:(fun () -> cur := saved) f

  let remember k id = Hashtbl.replace keys k id
  let recall k = Option.value ~default:0 (Hashtbl.find_opt keys k)

  (* ---- JSONL ---- *)

  let span_to_line sp =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "{\"id\":%d,\"parent\":%d,\"ts\":%d,\"dur\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"attrs\":{"
         sp.sp_id sp.sp_parent sp.sp_ts sp.sp_dur (json_escape sp.sp_cat)
         (json_escape sp.sp_name));
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      sp.sp_attrs;
    Buffer.add_string b "}}";
    Buffer.contents b

  let to_jsonl () =
    String.concat "" (List.map (fun sp -> span_to_line sp ^ "\n") (spans ()))

  let write_jsonl ~path =
    let sps = spans () in
    let oc = open_out path in
    List.iter (fun sp -> output_string oc (span_to_line sp ^ "\n")) sps;
    close_out oc;
    List.length sps

  (* A deliberately small parser for the exact shape span_to_line writes:
     flat object of int fields, two string fields, and a string-to-string
     attrs object.  Quotes inside values are escaped on the way out, so a
     raw '"' is always a delimiter here. *)
  let span_of_line line =
    let n = String.length line in
    let int_field key =
      let pat = "\"" ^ key ^ "\":" in
      match
        let rec find i =
          if i + String.length pat > n then None
          else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
          else find (i + 1)
        in
        find 0
      with
      | None -> None
      | Some i ->
        let j = ref i in
        while !j < n && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do
          Stdlib.incr j
        done;
        int_of_string_opt (String.sub line i (!j - i))
    in
    let raw_string_at i =
      (* [i] points just past an opening quote; scan to the unescaped close. *)
      let j = ref i in
      let rec go () =
        if !j >= n then None
        else if line.[!j] = '\\' then begin j := !j + 2; go () end
        else if line.[!j] = '"' then Some (String.sub line i (!j - i), !j + 1)
        else begin Stdlib.incr j; go () end
      in
      go ()
    in
    let string_field key =
      let pat = "\"" ^ key ^ "\":\"" in
      let rec find i =
        if i + String.length pat > n then None
        else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some i -> Option.map (fun (s, _) -> json_unescape s) (raw_string_at i)
    in
    let attrs () =
      let pat = "\"attrs\":{" in
      let rec find i =
        if i + String.length pat > n then None
        else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
        else find (i + 1)
      in
      match find 0 with
      | None -> []
      | Some i ->
        let rec pairs i acc =
          if i >= n || line.[i] = '}' then List.rev acc
          else if line.[i] = '"' then
            match raw_string_at (i + 1) with
            | None -> List.rev acc
            | Some (k, j) ->
              if j + 1 < n && line.[j] = ':' && line.[j + 1] = '"' then
                match raw_string_at (j + 2) with
                | None -> List.rev acc
                | Some (v, j2) -> pairs j2 ((json_unescape k, json_unescape v) :: acc)
              else List.rev acc
          else pairs (i + 1) acc
        in
        pairs i []
    in
    match int_field "id", int_field "parent", int_field "ts", int_field "dur",
          string_field "cat", string_field "name"
    with
    | Some id, Some parent, Some ts, Some dur, Some cat, Some name ->
      Some
        { sp_id = id; sp_parent = parent; sp_ts = ts; sp_dur = dur; sp_cat = cat;
          sp_name = name; sp_attrs = attrs () }
    | _ -> None

  let chain_exists sps chain =
    match chain with
    | [] -> true
    | (c0, n0) :: rest ->
      (* For each span matching the head, try to extend by direct parent
         links through the rest of the chain. *)
      let by_parent : (int, span) Hashtbl.t = Hashtbl.create 256 in
      List.iter (fun sp -> Hashtbl.add by_parent sp.sp_parent sp) sps;
      let rec extend id = function
        | [] -> true
        | (c, nm) :: tl ->
          List.exists
            (fun sp -> sp.sp_cat = c && sp.sp_name = nm && extend sp.sp_id tl)
            (Hashtbl.find_all by_parent id)
      in
      List.exists
        (fun sp -> sp.sp_cat = c0 && sp.sp_name = n0 && extend sp.sp_id rest)
        sps
end
