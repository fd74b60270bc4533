(* Per-driver resource ledger.

   RLIMIT_AS bounds how much the driver process can map, but nothing
   bounded what a driver could make the *kernel* hold on its behalf:
   device grants, live DMA mappings and the IO-page-table pages backing
   them, uchan ring memory, and the rate at which it may ring the
   kernel's doorbell.  This module is that missing ledger.  One quota is
   created per supervised driver (at [Supervisor.start]) and survives
   restarts with the generation — a crash-looping driver cannot launder
   its footprint by dying.

   Design rules, per the paper's "never allocate on behalf of the
   driver" discipline:

   - Exhaustion produces {e backpressure}, never kernel allocation: a
     charge over limit waits a bounded time for capacity (the resource
     may be mid-release by a dying sibling generation), then fails with
     an [Error] the caller maps to a denied syscall, and is counted.
   - Notification/IRQ-kick buckets are per queue.  Driver-side kicks are
     never suppressed (starving the trusted worker would wedge the
     ring): a dry bucket counts an overflow, and sustained overflow is a
     supervisor kill signal.  Kernel-side IRQ forwarding *is* dropped
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

type bucket = {
  mutable bk_tokens : int;
  mutable bk_last_ns : int;
}

type t = {
  eng : Engine.t;
  q_name : string;
  lim : limits;
  mutable grants : int;
  mutable dma_bytes : int;
  mutable iopt_pages : int;
  mutable uchan_bytes : int;
  buckets : (int, bucket) Hashtbl.t;      (* queue -> bucket *)
  qm_denied : Sud_obs.Metrics.counter;
  qm_notify_overflow : Sud_obs.Metrics.counter;
  qm_irq_dropped : Sud_obs.Metrics.counter;
}

let create eng ?(limits = default_limits) ~name () =
  let labels = [ ("driver", name) ] in
  let c n = Sud_obs.Metrics.counter ~labels ~subsystem:"quota" ~name:n () in
  let t =
    { eng;
      q_name = name;
      lim = limits;
      grants = 0;
      dma_bytes = 0;
      iopt_pages = 0;
      uchan_bytes = 0;
      buckets = Hashtbl.create 4;
      qm_denied = c "denied";
      qm_notify_overflow = c "notify_overflow";
      qm_irq_dropped = c "irq_kicks_dropped" }
  in
  ignore
    (Sud_obs.Metrics.gauge ~labels ~subsystem:"quota" ~name:"dma_bytes"
       (fun () -> t.dma_bytes)
     : Sud_obs.Metrics.gauge);
  ignore
    (Sud_obs.Metrics.gauge ~labels ~subsystem:"quota" ~name:"uchan_bytes"
       (fun () -> t.uchan_bytes)
     : Sud_obs.Metrics.gauge);
  t

let grants t = t.grants
let dma_bytes t = t.dma_bytes
let iopt_pages t = t.iopt_pages
let uchan_bytes t = t.uchan_bytes
let denials t = Sud_obs.Metrics.get t.qm_denied
let notify_overflows t = Sud_obs.Metrics.get t.qm_notify_overflow
let irq_kicks_dropped t = Sud_obs.Metrics.get t.qm_irq_dropped

(* IO-page-table cost of mapping [pages] 4K pages: the leaf PTE pages
   (512 entries each) plus one interior page per mapping — the kernel
   memory the IOMMU walk tables consume on the driver's behalf. *)
let iopt_pages_for ~pages = 1 + ((pages + 511) / 512)

let deny t what =
  Sud_obs.Metrics.incr t.qm_denied;
  Error (Printf.sprintf "quota(%s): %s exhausted" t.q_name what)

(* Bounded backpressure: capacity may be seconds-old garbage a dying
   generation is mid-way through releasing, so give the release a few
   chances before failing the charge.  Only meaningful from fiber
   context; bare callers (tests poking the ledger directly) fail
   immediately. *)
let wait_budget_ns = 100_000
let wait_step_ns = 20_000

let with_backpressure t try_charge what =
  let rec go waited =
    match try_charge () with
    | true -> Ok ()
    | false ->
      if waited >= wait_budget_ns then deny t what
      else begin
        match Fiber.self () with
        | exception Failure _ -> deny t what
        | _ ->
          ignore (Fiber.sleep t.eng wait_step_ns : Fiber.wake);
          go (waited + wait_step_ns)
      end
  in
  go 0

let charge_grant t =
  with_backpressure t
    (fun () ->
       if t.grants < t.lim.max_grants then begin
         t.grants <- t.grants + 1;
         true
       end
       else false)
    "device grants"

let release_grant t = t.grants <- max 0 (t.grants - 1)

let charge_dma t ~bytes ~pages =
  let iopt = iopt_pages_for ~pages in
  with_backpressure t
    (fun () ->
       if
         t.dma_bytes + bytes <= t.lim.max_dma_bytes
         && t.iopt_pages + iopt <= t.lim.max_iopt_pages
       then begin
         t.dma_bytes <- t.dma_bytes + bytes;
         t.iopt_pages <- t.iopt_pages + iopt;
         true
       end
       else false)
    "DMA mappings"

let release_dma t ~bytes ~pages =
  t.dma_bytes <- max 0 (t.dma_bytes - bytes);
  t.iopt_pages <- max 0 (t.iopt_pages - iopt_pages_for ~pages)

let charge_uchan t ~bytes =
  with_backpressure t
    (fun () ->
       if t.uchan_bytes + bytes <= t.lim.max_uchan_bytes then begin
         t.uchan_bytes <- t.uchan_bytes + bytes;
         true
       end
       else false)
    "uchan slot memory"

let release_uchan t ~bytes = t.uchan_bytes <- max 0 (t.uchan_bytes - bytes)

(* Quota negotiation when Driver_host sets up a generation's uchan rings
   (cold launch or warm prefork): rather than failing a start
   whose ring footprint exceeds the budget, clamp the queue count until
   it fits (queue 0 always survives — a channel must exist).  Returns
   the negotiated count; the caller then charges exactly that. *)
let ring_bytes ~slots ~queues = queues * 2 * slots * Msg.slot_size

let negotiate_queues t ~slots ~queues =
  let budget = t.lim.max_uchan_bytes - t.uchan_bytes in
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
  if lim.notify_burst = max_int then true
  else begin
    let b = bucket t queue in
    let now = Engine.now t.eng in
    let dt = now - b.bk_last_ns in
    if dt > 0 then begin
      (* Refill at notify_rate tokens/s, saturating at the burst depth. *)
      let refill =
        if lim.notify_rate >= 1_000_000_000 then max_int
        else dt / (1_000_000_000 / max 1 lim.notify_rate)
      in
      if refill > 0 then begin
        b.bk_tokens <- min lim.notify_burst (b.bk_tokens + refill);
        b.bk_last_ns <- now
      end
    end;
    if b.bk_tokens > 0 then begin
      b.bk_tokens <- b.bk_tokens - 1;
      true
    end
    else false
  end

let note_notify t ~queue =
  if not (take_token t queue) then Sud_obs.Metrics.incr t.qm_notify_overflow

let take_irq_token t ~queue =
  if take_token t queue then true
  else begin
    Sud_obs.Metrics.incr t.qm_irq_dropped;
    false
  end
