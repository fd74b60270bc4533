(* Dead-export gate.  Lists every [val] a [lib/*/*.mli] exports that no
   file outside its own module names, and exits nonzero if there is one.
   Run from the project root: [dead_exports.exe].

   Uses are read from the parsed sources of lib, bin, bench, test,
   perfbench and examples, so comments, strings and type paths never
   count.  A file's [module A = M] aliases are expanded, and a bare name
   counts as a use of [M.name] in a file that opens [M] anywhere ([open],
   [let open], [M.( ... )]).  Module types are not exports: a [val] in a
   [module type] is a signature member, not an entry point. *)

let sources ~ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.map (Filename.concat dir)

let lib_dirs =
  Sys.readdir "lib" |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat "lib")
  |> List.filter Sys.is_directory

let module_of file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let with_lexbuf file f =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf file;
  f lexbuf

(* Exported values: top-level [val]s and those of nested [module X : sig
   ... end] blocks, each as its full path. *)
let exports file =
  let rec sg prefix items =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd -> [ (prefix @ [ vd.pval_name.txt ], vd.pval_loc) ]
        | Psig_module
            {
              pmd_name = { txt = Some name; _ };
              pmd_type = { pmty_desc = Pmty_signature s; _ };
              _;
            } ->
            sg (prefix @ [ name ]) s
        | _ -> [])
      items
  in
  sg [ module_of file ] (with_lexbuf file Parse.interface)

let rec flatten : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (p, s) -> flatten p @ [ s ]
  | Lapply (f, _) -> flatten f

(* Every value path an implementation names, with its aliases expanded
   and each opened module prefixed in turn. *)
let uses file =
  let aliases = Hashtbl.create 8 and opens = ref [] and idents = ref [] in
  let it =
    let super = Ast_iterator.default_iterator in
    {
      super with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident lid -> idents := flatten lid.txt :: !idents
          | _ -> ());
          super.expr self e);
      module_binding =
        (fun self mb ->
          (match mb with
          | { pmb_name = { txt = Some name; _ }; pmb_expr = { pmod_desc = Pmod_ident lid; _ }; _ }
            ->
              Hashtbl.replace aliases name (flatten lid.txt)
          | _ -> ());
          super.module_binding self mb);
      open_declaration =
        (fun self od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> opens := flatten lid.txt :: !opens
          | _ -> ());
          super.open_declaration self od);
    }
  in
  with_lexbuf file (fun lexbuf -> it.structure it (Parse.implementation lexbuf));
  let expand = function
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | p -> p
  in
  let opens = List.map expand !opens in
  List.concat_map
    (fun p ->
      let p = expand p in
      p :: List.map (fun o -> o @ p) opens)
    !idents

let () =
  let callers =
    List.concat_map (sources ~ext:".ml")
      (lib_dirs @ [ "bin"; "bench"; "test"; "perfbench"; "examples" ])
  in
  let used = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      let self = module_of file in
      List.iter
        (function
          | m :: _ :: _ as p when m <> self -> Hashtbl.replace used p () | _ -> ())
        (uses file))
    callers;
  let dead =
    List.concat_map (sources ~ext:".mli") lib_dirs
    |> List.concat_map exports
    |> List.filter (fun (p, _) -> not (Hashtbl.mem used p))
  in
  List.iter
    (fun (p, (loc : Location.t)) ->
      Printf.printf "%s:%d: %s\n" loc.loc_start.pos_fname loc.loc_start.pos_lnum
        (String.concat "." p))
    dead;
  if dead <> [] then (
    Printf.printf "lint: %d exported val(s) that no file outside their module names\n"
      (List.length dead);
    exit 1)
