type cell = { cpu : t; mutable ns : int }

and t = {
  eng : Engine.t;
  free_at : int array;
  model : Cost_model.t;
  mutable busy : int;
  cells : (string, cell) Hashtbl.t;
}

let create eng ~cores model =
  if cores <= 0 then invalid_arg "Cpu.create: need at least one core";
  { eng; free_at = Array.make cores 0; model; busy = 0; cells = Hashtbl.create 16 }

let cores t = Array.length t.free_at
let cost_model t = t.model

let cell t label =
  match Hashtbl.find_opt t.cells label with
  | Some c -> c
  | None ->
    let c = { cpu = t; ns = 0 } in
    Hashtbl.add t.cells label c;
    c

(* The core the work starts on soonest: the first idle one, else the
   earliest-free, the lowest-numbered on a tie.  Any idle core starts the
   work now, and a core idle now stays idle, so which idle core takes it
   changes no start or finish time. *)
let pick_core t now =
  let free_at = t.free_at in
  let n = Array.length free_at in
  let idle = ref 0 in
  while !idle < n && free_at.(!idle) > now do incr idle done;
  if !idle < n then !idle
  else begin
    let best = ref 0 and best_at = ref free_at.(0) in
    for i = 1 to n - 1 do
      let at = free_at.(i) in
      if at < !best_at then begin
        best := i;
        best_at := at
      end
    done;
    !best
  end

(* Book [ns] on a core and on [c]'s line; the work ends at the returned
   instant. *)
let book c ns =
  let t = c.cpu in
  let now = Engine.now t.eng in
  let core = pick_core t now in
  let free = t.free_at.(core) in
  let finish = (if free > now then free else now) + ns in
  t.free_at.(core) <- finish;
  t.busy <- t.busy + ns;
  c.ns <- c.ns + ns;
  finish

let rec wait_until eng deadline =
  match Fiber.sleep eng (deadline - Engine.now eng) with
  | Fiber.Normal | Fiber.Timeout -> ()
  | Fiber.Interrupted ->
    (* CPU burn is not interruptible; keep waiting out the charge. *)
    if Engine.now eng < deadline then wait_until eng deadline

let consume_cell c ns =
  if ns > 0 then begin
    let finish = book c ns in
    let eng = c.cpu.eng in
    if finish > Engine.now eng then wait_until eng finish
  end

(* Event-context work still occupies a core: book capacity by advancing a
   core's free time, without blocking the (nonexistent) fiber.  This keeps
   total busy time bounded by cores * elapsed in steady state. *)
let account_cell c ns = if ns > 0 then ignore (book c ns : int)

(* [Fiber.self] fails outside a fiber: an event callback cannot block. *)
let charge c ns =
  match Fiber.self () with
  | _ -> consume_cell c ns
  | exception Failure _ -> account_cell c ns

let consume t ~label ns = consume_cell (cell t label) ns
let account t ~label ns = account_cell (cell t label) ns

let busy_ns t = t.busy

let busy_of t label =
  match Hashtbl.find_opt t.cells label with Some c -> c.ns | None -> 0

(* Every charge is positive, so a line that was never charged reads 0 and
   is left out, as if it had never been resolved. *)
let labels t =
  Hashtbl.fold (fun k c acc -> if c.ns > 0 then (k, c.ns) :: acc else acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let utilization t ~since_busy ~since_time =
  let elapsed = Engine.now t.eng - since_time in
  if elapsed <= 0 then 0.0
  else
    float_of_int (t.busy - since_busy)
    /. (float_of_int (Array.length t.free_at) *. float_of_int elapsed)
