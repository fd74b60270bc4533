type state = Queued | Fired | Cancelled

type event = { time : int; seq : int; fn : unit -> unit; mutable state : state }

type handle = event

(* "No event": it fills every vacated slot, so no queue keeps a fired or
   dropped event alive, and it sorts after every real event. *)
let none = { time = max_int; seq = max_int; fn = ignore; state = Fired }

(* The one order events fire in.  (time, seq) is total: seq is unique. *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* A binary min-heap of events in (time, seq) order.  Sifts move a hole
   instead of swapping, so each level costs one write. *)
module Heap = struct
  type t = { mutable data : event array; mutable len : int }

  let create () = { data = Array.make 64 none; len = 0 }

  let push h ev =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) none in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    let data = h.data in
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && before ev data.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      data.(!i) <- data.(parent);
      i := parent
    done;
    data.(!i) <- ev

  (* Fill the hole at [i] with [ev], first moving the hole down past every
     child that sorts before [ev]. *)
  let sift_down data len i ev =
    let i = ref i and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= len then sinking := false
      else begin
        let c = if l + 1 < len && before data.(l + 1) data.(l) then l + 1 else l in
        let child = data.(c) in
        if before child ev then begin
          data.(!i) <- child;
          i := c
        end
        else sinking := false
      end
    done;
    data.(!i) <- ev

  let top h = if h.len = 0 then none else h.data.(0)

  let drop_top h =
    let n = h.len - 1 in
    let last = h.data.(n) in
    h.data.(n) <- none;
    h.len <- n;
    if n > 0 then sift_down h.data n 0 last

  (* Keep the events satisfying [keep], then restore heap order bottom-up
     in O(n).  Pop order over the survivors is unchanged: it is total. *)
  let filter h keep =
    let n = ref 0 in
    for i = 0 to h.len - 1 do
      let ev = h.data.(i) in
      if keep ev then begin
        h.data.(!n) <- ev;
        incr n
      end
    done;
    Array.fill h.data !n (h.len - !n) none;
    h.len <- !n;
    for i = (h.len / 2) - 1 downto 0 do
      sift_down h.data h.len i h.data.(i)
    done
end

(* The delay-0 events of the current instant, in seq order: a ring buffer
   whose capacity is a power of two. *)
module Lane = struct
  type t = { mutable buf : event array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 64 none; head = 0; len = 0 }

  let push l ev =
    let cap = Array.length l.buf in
    if l.len = cap then begin
      let bigger = Array.make (2 * cap) none in
      for i = 0 to l.len - 1 do
        bigger.(i) <- l.buf.((l.head + i) land (cap - 1))
      done;
      l.buf <- bigger;
      l.head <- 0
    end;
    l.buf.((l.head + l.len) land (Array.length l.buf - 1)) <- ev;
    l.len <- l.len + 1

  let front l = if l.len = 0 then none else l.buf.(l.head)

  let drop_front l =
    l.buf.(l.head) <- none;
    l.head <- (l.head + 1) land (Array.length l.buf - 1);
    l.len <- l.len - 1

  (* Keep the events satisfying [keep], in order. *)
  let filter l keep =
    let mask = Array.length l.buf - 1 in
    let n = ref 0 in
    for i = 0 to l.len - 1 do
      let ev = l.buf.((l.head + i) land mask) in
      if keep ev then begin
        l.buf.((l.head + !n) land mask) <- ev;
        incr n
      end
    done;
    for i = !n to l.len - 1 do
      l.buf.((l.head + i) land mask) <- none
    done;
    l.len <- !n
end

(* Every queued event sits in exactly one of [lane] and [heap].  An event
   scheduled with delay 0 joins the lane; it is due now and has a higher
   seq than any event already queued, so the lane stays in (time, seq)
   order, and the clock cannot move past [now] before the lane drains.
   The earliest of the lane's front and the heap's top is therefore the
   earliest queued event: the engine fires exactly the order one heap of
   every event would. *)
type t = {
  mutable now : int;
  mutable seq : int;
  heap : Heap.t;
  lane : Lane.t;
  mutable cancelled : int;  (* cancelled events still in [heap] or [lane] *)
  mutable ready : event array;  (* a choice point's ready set, in seq order *)
  root_rng : Rng.t;
  mutable steps : int;
  mutable thash : int64;
  mutable picker : (step:int -> ready:int -> int) option;
  mutable observer : (step:int -> time:int -> ready:int -> pick:int -> unit) option;
  mutable stopping : bool;
}

let create ?(seed = 1L) () =
  { now = 0;
    seq = 0;
    heap = Heap.create ();
    lane = Lane.create ();
    cancelled = 0;
    ready = Array.make 16 none;
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
  if delay = 0 then Lane.push t.lane ev else Heap.push t.heap ev;
  ev

let schedule_now t fn = schedule_after t 0 fn

(* A cancelled event stays queued until it reaches the front, or until
   cancelled events make up more than half of the queue: then one O(n)
   pass drops them all, so the queue stays within twice its live events.
   The floor keeps a small queue from being rebuilt at every cancel. *)
let compact_floor = 64

let live ev = match ev.state with Queued -> true | Fired | Cancelled -> false

let cancel t ev =
  match ev.state with
  | Queued ->
    ev.state <- Cancelled;
    t.cancelled <- t.cancelled + 1;
    if t.cancelled > compact_floor && 2 * t.cancelled > t.heap.len + t.lane.len then begin
      Heap.filter t.heap live;
      Lane.filter t.lane live;
      t.cancelled <- 0
    end
  | Fired | Cancelled -> ()

let stop t = t.stopping <- true

let pending t = t.heap.len + t.lane.len - t.cancelled

(* The live front of the lane and top of the heap, reaping cancelled
   events on the way: they never fire, never count as a step and never
   move the clock. *)
let rec lane_front t =
  let ev = Lane.front t.lane in
  match ev.state with
  | Cancelled ->
    Lane.drop_front t.lane;
    t.cancelled <- t.cancelled - 1;
    lane_front t
  | Queued | Fired -> ev

let rec heap_top t =
  let ev = Heap.top t.heap in
  match ev.state with
  | Cancelled ->
    Heap.drop_top t.heap;
    t.cancelled <- t.cancelled - 1;
    heap_top t
  | Queued | Fired -> ev

let next_live t =
  let a = lane_front t and b = heap_top t in
  if before b a then b else a

(* Dequeue the earliest live event if it is due by [max_time]; else
   [none], leaving the queue as it was. *)
let pop_due t max_time =
  let a = lane_front t and b = heap_top t in
  if before b a then
    if b.time <= max_time then begin
      Heap.drop_top t.heap;
      b
    end
    else none
  else if a != none && a.time <= max_time then begin
    Lane.drop_front t.lane;
    a
  end
  else none

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

(* No queued event is earlier than [now], so firing sets the clock. *)
let fire t ev =
  ev.state <- Fired;
  t.now <- ev.time;
  note_fired t ev;
  ev.fn ()

let add_ready t n ev =
  if n = Array.length t.ready then begin
    let bigger = Array.make (2 * n) none in
    Array.blit t.ready 0 bigger 0 n;
    t.ready <- bigger
  end;
  t.ready.(n) <- ev

(* A choice point: [first], just dequeued, shares its instant with at
   least one more live event.  Dequeue that whole ready set in seq order,
   let the picker choose, and return the choice; the rest go back on the
   lane, emptied by the gathering, in seq order. *)
let choose t pick first =
  add_ready t 0 first;
  let n = ref 1 and ev = ref (pop_due t first.time) in
  while !ev != none do
    add_ready t !n !ev;
    incr n;
    ev := pop_due t first.time
  done;
  let n = !n in
  let i = pick ~step:t.steps ~ready:n in
  let i = if i < 0 || i >= n then 0 else i in
  (match t.observer with
   | Some obs -> obs ~step:t.steps ~time:first.time ~ready:n ~pick:i
   | None -> ());
  let chosen = t.ready.(i) in
  for j = 0 to n - 1 do
    if j <> i then Lane.push t.lane t.ready.(j);
    t.ready.(j) <- none
  done;
  chosen

let run_policy pick ~max_time ~max_events t =
  let fired = ref 0 in
  let continue_ = ref true in
  while !continue_ && !fired < max_events && not t.stopping do
    let first = pop_due t max_time in
    if first == none then continue_ := false
    else begin
      (* The picker sees only real choices: a lone event fires directly. *)
      let next = next_live t in
      let ev = if next != none && next.time = first.time then choose t pick first else first in
      incr fired;
      fire t ev
    end
  done

let run ?(max_time = max_int) ?(max_events = max_int) t =
  t.stopping <- false;
  match t.picker with
  | Some pick -> run_policy pick ~max_time ~max_events t
  | None ->
    let fired = ref 0 in
    let continue_ = ref true in
    while !continue_ && !fired < max_events && not t.stopping do
      let ev = pop_due t max_time in
      if ev == none then continue_ := false
      else begin
        incr fired;
        fire t ev
      end
    done
