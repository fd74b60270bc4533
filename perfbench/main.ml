(* One repetition of one workload, in a fresh process, printed as one JSON
   line on stdout.  [run.py] starts this program many times and turns the
   repetitions into the benchmark's result.

     main.exe --workload NAME --seed N --trace 0|1 [--spans FILE]
     main.exe --micro

   Any other argument is an error. *)

open Pb_util

let workloads =
  [ ("net-stream", Pb_work.net_stream);
    ("net-rr", Pb_work.net_rr);
    ("blk", Pb_work.blk) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (net-stream|net-rr|blk) --seed N --trace (0|1) [--spans FILE]\n\
    \       main.exe --micro";
  exit 2

let floats l = Obj (List.map (fun (k, v) -> (k, Num v)) l)

let run_workload ~name ~seed ~traced ~spans =
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  if traced then begin
    (* Sized so no program span of one repetition is dropped. *)
    Pb_sut.trace_enable ~capacity:(1 lsl 20);
    Spans.on := true
  end;
  let r = run ~seed in
  let categories = if traced then Pb_sut.trace_categories () else [] in
  (match spans with Some path when traced -> Spans.write path | Some _ | None -> ());
  let span_summary =
    List.map
      (fun (nm, n, sim_ns, wall_ns) ->
         Obj [ ("name", Str nm); ("count", Int n); ("sim_ns", Int sim_ns); ("wall_ns", Int wall_ns) ])
      (Spans.summary ())
  in
  print_endline
    (json_string
       (Obj
          [ ("workload", Str name);
            ("seed", Str (Int64.to_string seed));
            ("traced", Bool traced);
            ("digest", Str r.Pb_work.digest);
            ("attempted", Int r.Pb_work.attempted);
            ("failed", Int r.Pb_work.failed);
            ("failures", Arr (List.map (fun s -> Str s) r.Pb_work.failures));
            ("exact", floats r.Pb_work.exact);
            ("alloc", floats r.Pb_work.alloc);
            ("wall", floats r.Pb_work.wall);
            ("fingerprint", Str r.Pb_work.fingerprint);
            ("t_first_op", Num r.Pb_work.t_first_op);
            ("program_spans", Obj (List.map (fun (c, n) -> (c, Int n)) categories));
            ("program_spans_dropped", Int (Pb_sut.trace_dropped ()));
            ("bench_spans", Arr span_summary) ]))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse ~w ~s ~t ~sp = function
    | [] -> (w, s, t, sp)
    | "--workload" :: v :: rest when w = None -> parse ~w:(Some v) ~s ~t ~sp rest
    | "--seed" :: v :: rest when s = None -> (
        match Int64.of_string_opt v with
        | Some n -> parse ~w ~s:(Some n) ~t ~sp rest
        | None -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest when t = None -> parse ~w ~s ~t:(Some (v = "1")) ~sp rest
    | "--spans" :: v :: rest when sp = None -> parse ~w ~s ~t ~sp:(Some v) rest
    | _ -> usage ()
  in
  match args with
  | [ "--micro" ] ->
    let exact, wall, failures = Pb_micro.run () in
    print_endline
      (json_string
         (Obj
            [ ("exact", floats exact);
              ("wall", floats wall);
              ("failures", Arr (List.map (fun s -> Str s) failures)) ]))
  | _ -> (
      match parse ~w:None ~s:None ~t:None ~sp:None args with
      | Some name, Some seed, Some traced, spans -> run_workload ~name ~seed ~traced ~spans
      | _ -> usage ())
