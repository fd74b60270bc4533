(* Per-driver resource ledger and the capability tables it reads.

   RLIMIT_AS bounds how much the driver process can map, but nothing
   bounded what a driver could make the *kernel* hold on its behalf:
   device grants, live DMA mappings and the IO-page-table pages backing
   them, uchan ring memory, and the rate at which it may ring the
   kernel's doorbell.  This module is that missing ledger.  One quota is
   created per supervised driver (at [Supervisor.start]) and survives
   restarts with the generation — a crash-looping driver cannot launder
   its footprint by dying.

   A generation's holdings live in one capability table (paper §3.2,
   §4.1: death revokes the device grant, the IOMMU mappings, the
   interrupt vectors and the IO ports).  Each entry carries the action
   that revokes it, so the death hook is one newest-first walk, and the
   ledger reads its usage by folding over the tables that hold anything
   instead of keeping counters that must agree with them.

   Design rules, per the paper's "never allocate on behalf of the
   driver" discipline:

   - Exhaustion produces {e backpressure}, never kernel allocation:
     admission over limit waits a bounded time for capacity (the
     resource may be mid-revocation by a dying sibling generation), then
     fails with an [Error] the caller maps to a denied syscall, and is
     counted.  Admission comes before the kernel acquires anything.
   - Notification/IRQ-kick buckets are per queue.  Driver-side kernel
     entries are never refused (an undrained ring would wedge the
     channel): a dry bucket counts an overflow, and sustained overflow is
     a supervisor kill signal.  Kernel-side IRQ forwarding *is* dropped
     when the bucket is dry — the vector is masked and the pending bit
     latches, so the ack-time replay keeps the device live while the
     flood is absorbed at zero upcall cost. *)

type limits = {
  max_grants : int;          (* concurrently open device grants *)
  max_dma_bytes : int;       (* live DMA-mapped bytes *)
  max_iopt_pages : int;      (* IO-page-table pages backing the mappings *)
  max_uchan_bytes : int;     (* uchan ring slot memory *)
  notify_burst : int;        (* token bucket depth, per queue *)
  notify_rate : int;         (* bucket refill, tokens per second *)
}

(* Generous but finite: what the supervisor hands a driver nobody
   configured.  A real e1000 generation uses 1 grant, ~256 KB of DMA,
   a handful of IOPT pages and <1 MB of rings, so honest drivers never
   notice these; a malicious one hits them long before the kernel
   hurts. *)
let default_limits =
  { max_grants = 4;
    max_dma_bytes = 64 * 1024 * 1024;
    max_iopt_pages = 16 * 1024;
    max_uchan_bytes = 16 * 1024 * 1024;
    notify_burst = 4096;
    notify_rate = 1_000_000 }

type cap =
  | Grant
  | Dma of { iova : int; phys : int; pages : int }
  | Io_ports of { base : int; len : int }
  | Vectors of int array
  | Rings of { bytes : int }

type bucket = {
  mutable bk_tokens : int;
  mutable bk_last_ns : int;
}

type t = {
  eng : Engine.t;
  q_name : string;
  lim : limits;
  mutable tables : caps list;             (* the tables holding anything *)
  buckets : (int, bucket) Hashtbl.t;      (* queue -> bucket *)
  qm_denied : Sud_obs.Metrics.counter;
  qm_notify_overflow : Sud_obs.Metrics.counter;
  qm_irq_dropped : Sud_obs.Metrics.counter;
}

and caps = {
  c_ledger : t option;
  mutable c_held : entry list;            (* newest first *)
}

and entry = {
  e_cap : cap;
  e_revoke : unit -> unit;
}

(* IO-page-table cost of mapping [pages] 4K pages: the leaf PTE pages
   (512 entries each) plus one interior page per mapping — the kernel
   memory the IOMMU walk tables consume on the driver's behalf. *)
let iopt_pages_for ~pages = 1 + ((pages + 511) / 512)

let usage t f =
  List.fold_left (fun n c -> List.fold_left (fun n e -> n + f e.e_cap) n c.c_held) 0 t.tables

let grants t = usage t (function Grant -> 1 | _ -> 0)
let dma_bytes t = usage t (function Dma d -> d.pages * Bus.page_size | _ -> 0)
let iopt_pages t = usage t (function Dma d -> iopt_pages_for ~pages:d.pages | _ -> 0)
let uchan_bytes t = usage t (function Rings r -> r.bytes | _ -> 0)

let create eng ?(limits = default_limits) ~name () =
  let labels = [ ("driver", name) ] in
  let c n = Sud_obs.Metrics.counter ~labels ~subsystem:"quota" ~name:n () in
  let t =
    { eng;
      q_name = name;
      lim = limits;
      tables = [];
      buckets = Hashtbl.create 4;
      qm_denied = c "denied";
      qm_notify_overflow = c "notify_overflow";
      qm_irq_dropped = c "irq_kicks_dropped" }
  in
  ignore
    (Sud_obs.Metrics.gauge ~labels ~subsystem:"quota" ~name:"dma_bytes"
       (fun () -> dma_bytes t)
     : Sud_obs.Metrics.gauge);
  ignore
    (Sud_obs.Metrics.gauge ~labels ~subsystem:"quota" ~name:"uchan_bytes"
       (fun () -> uchan_bytes t)
     : Sud_obs.Metrics.gauge);
  t

let denials t = Sud_obs.Metrics.get t.qm_denied
let notify_overflows t = Sud_obs.Metrics.get t.qm_notify_overflow
let irq_kicks_dropped t = Sud_obs.Metrics.get t.qm_irq_dropped

(* ---- capability tables ---- *)

(* A table counts against its ledger while it holds anything, so the
   fold never walks a dead generation's empty table. *)
let set_held c held =
  (match c.c_ledger, c.c_held, held with
   | Some t, [], _ :: _ -> t.tables <- c :: t.tables
   | Some t, _ :: _, [] -> t.tables <- List.filter (fun c' -> c' != c) t.tables
   | Some _, _, _ | None, _, _ -> ());
  c.c_held <- held

let revoke c pred =
  let gone, kept = List.partition (fun e -> pred e.e_cap) c.c_held in
  set_held c kept;
  List.iter (fun e -> e.e_revoke ()) gone

let table ledger proc =
  let c = { c_ledger = ledger; c_held = [] } in
  Process.on_exit proc (fun () -> revoke c (fun _ -> true));
  c

let ledger c = c.c_ledger
let held c = c.c_held
let cap e = e.e_cap
let record c cap ~revoke = set_held c ({ e_cap = cap; e_revoke = revoke } :: c.c_held)

let drop c pred =
  let e = List.find_opt (fun e -> pred e.e_cap) c.c_held in
  Option.iter (fun e -> set_held c (List.filter (fun e' -> e' != e) c.c_held)) e;
  Option.map cap e

(* The resource [cap] would exhaust, if any. *)
let exhausted t = function
  | Grant when grants t >= t.lim.max_grants -> Some "device grants"
  | Dma { pages; _ }
    when dma_bytes t + (pages * Bus.page_size) > t.lim.max_dma_bytes
         || iopt_pages t + iopt_pages_for ~pages > t.lim.max_iopt_pages ->
    Some "DMA mappings"
  | Rings { bytes } when uchan_bytes t + bytes > t.lim.max_uchan_bytes -> Some "uchan slot memory"
  | Grant | Dma _ | Rings _ | Io_ports _ | Vectors _ -> None

let deny t what =
  Sud_obs.Metrics.incr t.qm_denied;
  Error (Printf.sprintf "quota(%s): %s exhausted" t.q_name what)

(* Bounded backpressure: capacity may be seconds-old garbage a dying
   generation is mid-way through revoking, so give the revocation a few
   chances before denying.  Only meaningful from fiber context; bare
   callers (tests poking the ledger directly) fail immediately. *)
let wait_budget_ns = 100_000
let wait_step_ns = 20_000

let admit c cap =
  match c.c_ledger with
  | None -> Ok ()
  | Some t ->
    let rec go waited =
      match exhausted t cap with
      | None -> Ok ()
      | Some what when waited >= wait_budget_ns -> deny t what
      | Some what ->
        (match Fiber.self () with
         | exception Failure _ -> deny t what
         | _ ->
           ignore (Fiber.sleep t.eng wait_step_ns : Fiber.wake);
           go (waited + wait_step_ns))
    in
    go 0

(* Quota negotiation when Driver_host sets up a generation's uchan rings
   (cold launch or warm prefork): rather than failing a start
   whose ring footprint exceeds the budget, clamp the queue count until
   it fits (queue 0 always survives — a channel must exist).  Returns
   the negotiated count; the caller then admits exactly that. *)
let ring_bytes ~slots ~queues = queues * 2 * slots * Msg.slot_size

let negotiate_queues t ~slots ~queues =
  let budget = t.lim.max_uchan_bytes - uchan_bytes t in
  let rec fit q =
    if q <= 1 then 1
    else if ring_bytes ~slots ~queues:q <= budget then q
    else fit (q - 1)
  in
  fit queues

(* ---- per-queue notification / IRQ-kick token bucket ---- *)

let bucket t queue =
  match Hashtbl.find_opt t.buckets queue with
  | Some b -> b
  | None ->
    let b = { bk_tokens = t.lim.notify_burst; bk_last_ns = Engine.now t.eng } in
    Hashtbl.add t.buckets queue b;
    b

let take_token t queue =
  let lim = t.lim in
  let b = bucket t queue in
  let now = Engine.now t.eng in
  let dt = now - b.bk_last_ns in
  if dt > 0 then begin
    (* Refill at notify_rate tokens/s, saturating at the burst depth
       without overflowing the sum. *)
    let refill =
      if lim.notify_rate >= 1_000_000_000 then max_int
      else dt / (1_000_000_000 / max 1 lim.notify_rate)
    in
    if refill > 0 then begin
      b.bk_tokens <-
        (if refill >= lim.notify_burst - b.bk_tokens then lim.notify_burst
         else b.bk_tokens + refill);
      b.bk_last_ns <- now
    end
  end;
  if b.bk_tokens > 0 then begin
    b.bk_tokens <- b.bk_tokens - 1;
    true
  end
  else false

let note_notify t ~queue =
  if not (take_token t queue) then Sud_obs.Metrics.incr t.qm_notify_overflow

let take_irq_token t ~queue =
  if take_token t queue then true
  else begin
    Sud_obs.Metrics.incr t.qm_irq_dropped;
    false
  end
