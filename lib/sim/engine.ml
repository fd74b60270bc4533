type state = Queued | Fired | Cancelled

type event = { time : int; seq : int; fn : unit -> unit; mutable state : state }

type handle = event

type t = {
  mutable now : int;
  mutable seq : int;
  heap : event Heap.t;
  mutable cancelled : int;  (* cancelled events still in [heap] *)
  root_rng : Rng.t;
  mutable steps : int;
  mutable thash : int64;
  mutable picker : (step:int -> ready:int -> int) option;
  mutable observer : (step:int -> time:int -> ready:int -> pick:int -> unit) option;
  mutable stopping : bool;
}

let dummy_event = { time = 0; seq = 0; fn = ignore; state = Fired }

let compare_event a b =
  match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

let create ?(seed = 1L) () =
  { now = 0;
    seq = 0;
    heap = Heap.create ~cmp:compare_event ~dummy:dummy_event;
    cancelled = 0;
    root_rng = Rng.create ~seed;
    steps = 0;
    thash = 0x5D0_C4ECL;
    picker = None;
    observer = None;
    stopping = false }

let now t = t.now
let rng t = t.root_rng
let steps t = t.steps
let trace_hash t = t.thash
let set_picker t p = t.picker <- p
let set_observer t o = t.observer <- o

let schedule_after t delay fn =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  t.seq <- t.seq + 1;
  let ev = { time = t.now + delay; seq = t.seq; fn; state = Queued } in
  Heap.push t.heap ev;
  ev

let schedule_now t fn = schedule_after t 0 fn

(* A cancelled event stays in the heap until it reaches the top, or until
   cancelled events make up more than half of the heap: then one O(n) pass
   drops them all, so the queue stays within twice its live events.  The
   floor keeps a small queue from being rebuilt at every cancel. *)
let compact_floor = 64

let cancel t ev =
  if ev.state = Queued then begin
    ev.state <- Cancelled;
    t.cancelled <- t.cancelled + 1;
    if t.cancelled > compact_floor && 2 * t.cancelled > Heap.length t.heap then begin
      Heap.filter t.heap (fun ev -> ev.state = Queued);
      t.cancelled <- 0
    end
  end

let stop t = t.stopping <- true

let pending t = Heap.length t.heap - t.cancelled

(* The earliest queued event, reaping cancelled ones off the top on the
   way: they never fire, never count as a step and never move the clock. *)
let rec peek_live t =
  match Heap.peek t.heap with
  | Some ev when ev.state = Cancelled ->
    ignore (Heap.pop t.heap : event option);
    t.cancelled <- t.cancelled - 1;
    peek_live t
  | top -> top

(* Fingerprint the fired (time, seq) stream.  Two runs that fire the same
   events in the same order — the definition of an identical schedule —
   produce the same hash; any reordering diverges at the first swap. *)
let note_fired t ev =
  t.steps <- t.steps + 1;
  t.thash <-
    Rng.mix
      (Int64.add
         (Int64.mul t.thash 0x100000001B3L)
         (Int64.of_int (ev.time lxor (ev.seq * 0x9E3779B9))))

let fire t ev =
  ev.state <- Fired;
  t.now <- max t.now ev.time;
  note_fired t ev;
  ev.fn ()

(* The ready set: every queued event sharing the minimal time, in seq
   (arrival) order — the order they pop in, since (time, seq) is total. *)
let gather_ready t =
  match peek_live t with
  | None -> []
  | Some first ->
    let rec collect acc =
      match peek_live t with
      | Some ev when ev.time = first.time ->
        ignore (Heap.pop t.heap : event option);
        collect (ev :: acc)
      | _ -> List.rev acc
    in
    collect []

let run_policy pick ?(max_time = max_int) ?(max_events = max_int) t =
  let fired = ref 0 in
  let continue_ = ref true in
  while !continue_ && !fired < max_events && not t.stopping do
    match gather_ready t with
    | [] -> continue_ := false
    | ready when (List.hd ready).time > max_time ->
      (* Past the horizon: put the instant back untouched. *)
      List.iter (fun ev -> Heap.push t.heap ev) ready;
      continue_ := false
    | ready ->
      let n = List.length ready in
      let idx =
        if n = 1 then 0
        else begin
          let i = pick ~step:t.steps ~ready:n in
          let i = if i < 0 || i >= n then 0 else i in
          (match t.observer with
           | Some obs -> obs ~step:t.steps ~time:(List.hd ready).time ~ready:n ~pick:i
           | None -> ());
          i
        end
      in
      let chosen = List.nth ready idx in
      List.iteri (fun j ev -> if j <> idx then Heap.push t.heap ev) ready;
      incr fired;
      fire t chosen
  done

let run ?(max_time = max_int) ?(max_events = max_int) t =
  t.stopping <- false;
  match t.picker with
  | Some pick -> run_policy pick ~max_time ~max_events t
  | None ->
    (* FIFO fast path: identical to the historical engine loop — pop-min in
       (time, seq) order with no ready-set materialization. *)
    let fired = ref 0 in
    let continue_ = ref true in
    while !continue_ && !fired < max_events && not t.stopping do
      match peek_live t with
      | Some ev when ev.time <= max_time ->
        ignore (Heap.pop t.heap : event option);
        incr fired;
        fire t ev
      | _ -> continue_ := false
    done
