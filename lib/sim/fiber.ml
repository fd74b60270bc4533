exception Killed

type wake = Normal | Interrupted | Timeout

type state =
  | Ready                     (* spawned or resumed, start/continue queued *)
  | Running
  | Suspended of susp
  | Dead

and susp = {
  mutable release : unit -> unit;   (* unfiles the wait; runs when it ends *)
  resume : wake -> unit;
  discontinue_killed : unit -> unit;
}

and t = {
  fid : int;
  fname : string;
  mutable state : state;
  mutable pending_kill : bool;
  mutable exits : (unit -> unit) list;
}

type _ Effect.t += Suspend : (t -> unit -> unit) -> wake Effect.t

let next_id = ref 0

(* The engine is single-threaded: exactly one fiber executes at a time, so a
   single mutable cell suffices to track it. *)
let current : t option ref = ref None

let self () =
  match !current with
  | Some f -> f
  | None -> failwith "Fiber.self: not in fiber context"

let name t = t.fname
let id t = t.fid
let is_alive t = t.state <> Dead

let on_exit t fn = t.exits <- fn :: t.exits

let finish t =
  t.state <- Dead;
  let fns = t.exits in
  t.exits <- [];
  List.iter (fun fn -> fn ()) fns

(* Run [step] as fiber [t]'s execution: set the current-fiber cell around it
   and translate a Killed unwind into a normal death. *)
let enter t step =
  let saved = !current in
  current := Some t;
  t.state <- Running;
  Fun.protect ~finally:(fun () -> current := saved) step

let handler engine t =
  let open Effect.Deep in
  { retc = (fun () -> finish t);
    exnc =
      (fun e ->
         finish t;
         match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
         match eff with
         | Suspend register ->
           Some
             (fun (k : (a, unit) continuation) ->
                let susp =
                  { release = ignore;
                    resume =
                      (fun w ->
                         ignore
                           (Engine.schedule_now engine (fun () ->
                                if t.pending_kill then
                                  enter t (fun () -> discontinue k Killed)
                                else enter t (fun () -> continue k w))
                            : Engine.handle));
                    discontinue_killed =
                      (fun () ->
                         ignore
                           (Engine.schedule_now engine (fun () ->
                                enter t (fun () -> discontinue k Killed))
                            : Engine.handle)) }
                in
                t.state <- Suspended susp;
                susp.release <- register t)
         | _ -> None) }

let spawn engine ?name:(fname = "fiber") main =
  incr next_id;
  let t =
    { fid = !next_id; fname; state = Ready; pending_kill = false; exits = [] }
  in
  ignore
    (Engine.schedule_now engine (fun () ->
         if t.pending_kill then finish t
         else
           enter t (fun () -> Effect.Deep.match_with main () (handler engine t)))
     : Engine.handle);
  t

let suspend register = Effect.perform (Suspend register)

(* End the suspension at once: its release runs here, inside whatever
   woke the fiber, so no timer or queue entry of the wait outlives it. *)
let end_wait t s =
  t.state <- Ready;
  s.release ()

let wake t w =
  match t.state with
  | Suspended s ->
    end_wait t s;
    s.resume w;
    true
  | Ready | Running | Dead -> false

let kill t =
  match t.state with
  | Dead -> ()
  | Suspended s ->
    end_wait t s;
    t.pending_kill <- true;
    s.discontinue_killed ()
  | Ready -> t.pending_kill <- true
  | Running ->
    (* Only the fiber itself can observe state Running. *)
    raise Killed

let interrupt t =
  match t.state with
  | Suspended s ->
    end_wait t s;
    s.resume Interrupted;
    true
  | Ready | Running | Dead -> false

let sleep engine ns =
  suspend (fun fiber ->
      let timer =
        Engine.schedule_after engine ns (fun () -> ignore (wake fiber Normal : bool))
      in
      fun () -> Engine.cancel engine timer)

let yield engine = ignore (sleep engine 0 : wake)

let poll engine ~every_ns ~budget cond =
  let rec go left =
    cond () || (left > 0 && (ignore (sleep engine every_ns : wake); go (left - 1)))
  in
  go budget
