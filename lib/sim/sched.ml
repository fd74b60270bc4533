(* Scheduler policies over Engine's same-instant choice points, plus the
   recorder/replayer and the versioned schedule-file format.  It sits in
   sud_sim and needs only the stdlib and Json, so any layer (attacks
   soaks included) can dump a replayable schedule on failure. *)

type decision = { d_step : int; d_ready : int; d_pick : int }

type spec =
  | Fifo
  | Random of { seed : int64; p_preempt : int }
  | Replay of decision list

type recorder = {
  mutable rec_rev : decision list;
  mutable rec_points : int;
  mutable rec_divergence : string option;
}

let spec_label = function
  | Fifo -> "fifo"
  | Random _ -> "random"
  | Replay _ -> "replay"

let decisions r = List.rev r.rec_rev

let install ?(strict = false) eng spec =
  let r = { rec_rev = []; rec_points = 0; rec_divergence = None } in
  let picker =
    match spec with
    | Fifo -> fun ~step:_ ~ready:_ -> 0
    | Random { seed; p_preempt } ->
      let rng = Rng.create ~seed in
      fun ~step:_ ~ready ->
        if Rng.int rng 100 < p_preempt then Rng.int rng ready else 0
    | Replay ds when strict ->
      (* Verification replay: every decision must line up exactly with the
         choice point it was recorded at; the first mismatch is reported
         and the rest of the run falls back to FIFO. *)
      let rest = ref ds in
      fun ~step ~ready ->
        (match !rest with
         | [] -> 0
         | d :: tl ->
           if d.d_step = step && d.d_ready = ready && d.d_pick < ready then begin
             rest := tl;
             d.d_pick
           end else begin
             if r.rec_divergence = None then
               r.rec_divergence <-
                 Some
                   (Printf.sprintf
                      "divergence at step %d (ready %d): recorded (step %d, ready %d, pick %d)"
                      step ready d.d_step d.d_ready d.d_pick);
             rest := tl;
             0
           end)
    | Replay ds ->
      (* Permissive replay, used by the shrinker: decisions are keyed by
         engine step; anything missing or out of range degrades to FIFO so
         every edited subset of a schedule is still a well-defined run. *)
      let tbl = Hashtbl.create (List.length ds * 2 + 1) in
      List.iter (fun d -> Hashtbl.replace tbl d.d_step d) ds;
      fun ~step ~ready ->
        (match Hashtbl.find_opt tbl step with
         | None -> 0
         | Some d -> if d.d_pick < ready then d.d_pick else d.d_pick mod ready)
  in
  Engine.set_picker eng (Some picker);
  Engine.set_observer eng
    (Some
       (fun ~step ~time:_ ~ready ~pick ->
          r.rec_points <- r.rec_points + 1;
          r.rec_rev <- { d_step = step; d_ready = ready; d_pick = pick } :: r.rec_rev));
  r

(* ---- schedule files: versioned JSONL, one decision per line ---- *)

let version = "sud-sched/1"

type file = {
  f_scenario : string;
  f_seed : int64;  (* scenario seed (root of the run's derived streams) *)
  f_policy : string;
  f_policy_seed : int64;
  f_p_preempt : int;
  f_decisions : decision list;
  f_points : int;
  f_steps : int;
  f_trace_hash : int64;
  f_metrics_hash : int64;
}

let file_of ~scenario ~seed ~spec ~trace_hash ~metrics_hash ~steps r =
  let policy_seed, p_preempt =
    match spec with Random { seed; p_preempt } -> (seed, p_preempt) | _ -> (0L, 0)
  in
  { f_scenario = scenario;
    f_seed = seed;
    f_policy = spec_label spec;
    f_policy_seed = policy_seed;
    f_p_preempt = p_preempt;
    f_decisions = decisions r;
    f_points = r.rec_points;
    f_steps = steps;
    f_trace_hash = trace_hash;
    f_metrics_hash = metrics_hash }

let hex v = Json.Str (Printf.sprintf "0x%Lx" v)

let save ~path f =
  Json.write_jsonl ~path
    ((Json.Obj
        [ ("schedule", Json.Str version);
          ("scenario", Json.Str f.f_scenario);
          ("seed", hex f.f_seed);
          ("policy", Json.Str f.f_policy);
          ("policy_seed", hex f.f_policy_seed);
          ("p_preempt", Json.Int f.f_p_preempt) ]
     :: List.map
          (fun d ->
             Json.Obj
               [ ("step", Json.Int d.d_step); ("ready", Json.Int d.d_ready);
                 ("pick", Json.Int d.d_pick) ])
          f.f_decisions)
     @ [ Json.Obj
           [ ("end", Json.Bool true);
             ("points", Json.Int f.f_points);
             ("steps", Json.Int f.f_steps);
             ("trace_hash", hex f.f_trace_hash);
             ("metrics_hash", hex f.f_metrics_hash) ] ])

let load path =
  let str j k = Option.bind (Json.member j k) Json.as_str in
  let int j k = Option.bind (Json.member j k) Json.as_int in
  let int64 j k = Option.bind (str j k) Int64.of_string_opt in
  match Json.of_jsonl_file path with
  | Error e -> Error e
  | Ok [] -> Error (Printf.sprintf "%s: empty schedule file" path)
  | Ok (header :: rest) ->
    (match str header "schedule" with
     | Some v when v = version ->
       let foot =
         Option.value ~default:(Json.Obj [])
           (List.find_opt (fun j -> Json.member j "end" = Some (Json.Bool true)) rest)
       in
       let decision j =
         match (int j "step", int j "ready", int j "pick") with
         | Some s, Some r, Some p -> Some { d_step = s; d_ready = r; d_pick = p }
         | _ -> None
       in
       Ok
         { f_scenario = Option.value ~default:"?" (str header "scenario");
           f_seed = Option.value ~default:0L (int64 header "seed");
           f_policy = Option.value ~default:"fifo" (str header "policy");
           f_policy_seed = Option.value ~default:0L (int64 header "policy_seed");
           f_p_preempt = Option.value ~default:0 (int header "p_preempt");
           f_decisions = List.filter_map decision rest;
           f_points = Option.value ~default:0 (int foot "points");
           f_steps = Option.value ~default:0 (int foot "steps");
           f_trace_hash = Option.value ~default:0L (int64 foot "trace_hash");
           f_metrics_hash = Option.value ~default:0L (int64 foot "metrics_hash") }
     | Some v -> Error (Printf.sprintf "%s: schedule version %s (want %s)" path v version)
     | None -> Error (Printf.sprintf "%s: not a sud-sched file" path))
