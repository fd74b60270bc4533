exception Killed

type wake = Normal | Interrupted | Timeout

type state =
  | Ready                     (* spawned or resumed, start/continue queued *)
  | Running
  | Suspended of susp
  | Dead

(* A parked fiber: the continuation a wake resumes, and the release that
   unfiles its wait (it runs when the wait ends). *)
and susp = { k : (wake, unit) Effect.Deep.continuation; mutable release : unit -> unit }

and t = {
  fid : int;
  fname : string;
  eng : Engine.t;
  mutable state : state;
  mutable pending_kill : bool;
  mutable exits : (unit -> unit) list;
}

type _ Effect.t += Suspend : (t -> unit -> unit) -> wake Effect.t

let next_id = ref 0

(* The engine is single-threaded: exactly one fiber executes at a time, so a
   single mutable cell suffices to track it; [nobody] when none does. *)
let nobody =
  { fid = 0; fname = ""; eng = Engine.create (); state = Dead; pending_kill = false; exits = [] }

let current = ref nobody

let self () =
  let t = !current in
  if t == nobody then failwith "Fiber.self: not in fiber context" else t

let name t = t.fname
let id t = t.fid
let is_alive t = match t.state with Dead -> false | Ready | Running | Suspended _ -> true

let on_exit t fn = t.exits <- fn :: t.exits

let finish t =
  t.state <- Dead;
  let fns = t.exits in
  t.exits <- [];
  List.iter (fun fn -> fn ()) fns

(* Make [t] the running fiber for one step; the caller restores the
   returned previous fiber however the step ends. *)
let enter t =
  let saved = !current in
  current := t;
  t.state <- Running;
  saved

let leave saved e =
  let bt = Printexc.get_raw_backtrace () in
  current := saved;
  Printexc.raise_with_backtrace e bt

(* One step of a parked fiber: continue it with [w], or unwind it with
   Killed if a kill came in since the wake was queued. *)
let step t k w =
  let saved = enter t in
  match
    if t.pending_kill then Effect.Deep.discontinue k Killed else Effect.Deep.continue k w
  with
  | () -> current := saved
  | exception e -> leave saved e

(* A wake queues exactly one closure: the step. *)
let resume t k w = ignore (Engine.schedule_now t.eng (fun () -> step t k w) : Engine.handle)

let handler t =
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
                let s = { k; release = ignore } in
                t.state <- Suspended s;
                s.release <- register t)
         | _ -> None) }

let start t main =
  let saved = enter t in
  match Effect.Deep.match_with main () (handler t) with
  | () -> current := saved
  | exception e -> leave saved e

let spawn engine ?name:(fname = "fiber") main =
  incr next_id;
  let t =
    { fid = !next_id; fname; eng = engine; state = Ready; pending_kill = false; exits = [] }
  in
  ignore
    (Engine.schedule_now engine (fun () -> if t.pending_kill then finish t else start t main)
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
    resume t s.k w;
    true
  | Ready | Running | Dead -> false

let kill t =
  match t.state with
  | Dead -> ()
  | Suspended s ->
    end_wait t s;
    t.pending_kill <- true;
    (* The step sees [pending_kill] and unwinds the fiber with Killed. *)
    resume t s.k Normal
  | Ready -> t.pending_kill <- true
  | Running ->
    (* Only the fiber itself can observe state Running. *)
    raise Killed

let interrupt t =
  match t.state with
  | Suspended s ->
    end_wait t s;
    resume t s.k Interrupted;
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
