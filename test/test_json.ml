(* The JSON codec: the printer/parser round-trip, the compatibility
   promise that every historical BENCH_* emitter style still parses, and
   the reader combinators the bench gates rely on.  The suite keeps the
   name bench_schema: the codec began as the bench result format, which
   its legacy and frozen-baseline cases still pin. *)

module J = Json

let rec pp_value fmt = function
  | J.Null -> Format.fprintf fmt "null"
  | J.Bool b -> Format.fprintf fmt "%b" b
  | J.Int i -> Format.fprintf fmt "%d" i
  | J.Float f -> Format.fprintf fmt "%h" f
  | J.Str s -> Format.fprintf fmt "%S" s
  | J.List vs ->
    Format.fprintf fmt "[%a]" (Format.pp_print_list pp_value) vs
  | J.Obj fs ->
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list (fun fmt (k, v) -> Format.fprintf fmt "%s: %a" k pp_value v))
      fs

let value = Alcotest.testable pp_value ( = )

(* A document exercising every constructor, nesting, and the string
   escapes the emitters produce (quotes, backslashes, newlines, raw
   control bytes). *)
let sample =
  J.Obj
    [ J.schema 7;
      ("bench", J.Str "blkperf");
      ("empty_list", J.List []);
      ("empty_obj", J.Obj []);
      ("nothing", J.Null);
      ("flags", J.List [ J.Bool true; J.Bool false ]);
      ("negative", J.Int (-42));
      ("big", J.Int 1_000_000_007);
      ("ratio", J.fnum 0.123456);
      ("whole", J.Float 100.);
      ("tiny", J.Float 1.5e-9);
      ("nasty", J.Str "a \"quoted\" \\ back\nslash \001 ctrl");
      ( "points",
        J.List
          [ J.Obj [ ("depth", J.Int 1); ("kiops", J.Float 75.6) ];
            J.Obj [ ("depth", J.Int 16); ("kiops", J.Float 334.2) ] ] ) ]

let test_roundtrip () =
  match J.of_string (J.to_string sample) with
  | Ok v -> Alcotest.check value "print |> parse is the identity" sample v
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_fnum () =
  Alcotest.check value "rounded to 3 decimals" (J.Float 0.123) (J.fnum 0.1234999);
  Alcotest.check value "dp override" (J.Float 7.1) (J.fnum ~dp:1 7.06);
  Alcotest.check value "nan is null" J.Null (J.fnum Float.nan);
  Alcotest.check value "infinity is null" J.Null (J.fnum Float.infinity)

(* Whole-float fields must reparse as floats, not collapse into ints —
   a gate comparing kpps values would otherwise see 100 <> 100.0. *)
let test_float_identity () =
  match J.of_string (J.to_string (J.Float 100.)) with
  | Ok (J.Float f) -> Alcotest.(check (float 0.)) "value survives" 100. f
  | Ok v -> Alcotest.failf "parsed as %s, not a float" (J.to_string v)
  | Error e -> Alcotest.fail e

(* Excerpt in the exact style of the historical hand-printf emitters
   (sud-bench/2 .. /6): the parser must keep reading the checked-in
   baselines older sessions wrote. *)
let legacy =
  {|{
  "schema": "sud-bench/4",
  "micro": {
    "ring_push_pop": { "name": "uchan ring push+pop", "ns_per_op": 10.0 },
    "gone": { "name": "removed", "ns_per_op": null }
  },
  "points": [
    { "queues": 1, "kpps": 508.9, "rxq_frames": [150335] },
    { "queues": 4, "kpps": 1126.5, "rxq_frames": [86397, 86398] }
  ],
  "seed": "0xB12A7",
  "pass": true
}
|}

let test_legacy_lookups () =
  let doc =
    match J.of_string legacy with
    | Ok v -> v
    | Error e -> Alcotest.failf "legacy style did not parse: %s" e
  in
  Alcotest.(check (option (float 0.)))
    "micro path" (Some 10.0)
    Option.(bind (J.path doc [ "micro"; "ring_push_pop"; "ns_per_op" ]) J.as_float);
  Alcotest.(check (option (float 0.)))
    "null estimate reads as absent" None
    Option.(bind (J.path doc [ "micro"; "gone"; "ns_per_op" ]) J.as_float);
  Alcotest.(check (option string)) "schema" (Some "sud-bench/4")
    Option.(bind (J.member doc "schema") J.as_str);
  Alcotest.(check (option bool)) "pass" (Some true)
    Option.(bind (J.member doc "pass") J.as_bool);
  let pts = Option.get Option.(bind (J.member doc "points") J.as_list) in
  (match J.find_point pts [ ("queues", J.Int 4) ] with
   | Some p ->
     Alcotest.(check (option (float 0.)))
       "sweep-row lookup" (Some 1126.5)
       Option.(bind (J.member p "kpps") J.as_float)
   | None -> Alcotest.fail "find_point missed queues=4");
  Alcotest.(check (option value))
    "find_point misses cleanly" None
    (J.find_point pts [ ("queues", J.Int 2) ])

let test_checked_in_baselines () =
  (* The historical emitter style, as a whole document. *)
  match J.of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match J.of_string (J.to_string doc) with
     | Ok doc2 -> Alcotest.check value "reprint of legacy reparses equal" doc doc2
     | Error e -> Alcotest.failf "reprint did not parse: %s" e)

(* The frozen baseline every bench gate reads (a dep of this test, so
   dune copies it beside the sandbox). *)
let test_frozen_baseline () =
  let doc =
    match J.of_file "../bench/baseline.json" with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "bench/baseline.json: %s" e
  in
  Alcotest.(check (option string)) "schema" (Some "sud-bench/10")
    Option.(bind (J.member doc "schema") J.as_str);
  (match J.member doc "values" with
   | Some (J.Obj (_ :: _ as values)) ->
     List.iter
       (fun (key, entry) ->
          match Option.bind (J.member entry "value") J.as_float with
          | Some v when Float.is_finite v -> ()
          | _ -> Alcotest.failf "baseline %s: value is not a finite number" key)
       values
   | _ -> Alcotest.fail "baseline has no values");
  match J.of_string (J.to_string doc) with
  | Ok doc2 -> Alcotest.check value "reprint reparses equal" doc doc2
  | Error e -> Alcotest.failf "reprint did not parse: %s" e

let test_errors () =
  let fails s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1, 2";
  fails "{\"a\" 1}";
  fails "\"unterminated";
  fails "{\"a\": 1} trailing";
  fails "nul";
  fails "{\"a\": 00x}"

let suite =
  [ Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "fnum rounding and null" `Quick test_fnum;
    Alcotest.test_case "whole floats stay floats" `Quick test_float_identity;
    Alcotest.test_case "legacy emitter style parses, readers work" `Quick
      test_legacy_lookups;
    Alcotest.test_case "reprinted documents reparse equal" `Quick
      test_checked_in_baselines;
    Alcotest.test_case "bench/baseline.json is frozen sud-bench/10" `Quick
      test_frozen_baseline;
    Alcotest.test_case "malformed inputs are rejected" `Quick test_errors ]
