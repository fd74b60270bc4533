type handler = source:Bus.bdf -> unit

type entry = {
  hname : string;
  fn : handler;
  mutable hits : int;
  mutable masked : bool;
  mutable affinity : int;          (* sim CPU this vector is steered to *)
}

type t = {
  cpu : Cpu.t;
  irq_cells : Cpu.cell array;      (* "kernel:irq:cpuN", indexed by sim CPU *)
  preempt : Preempt.t;
  klog : Klog.t;
  handlers : (int, entry) Hashtbl.t;
  freed : (int, unit) Hashtbl.t;   (* vectors that were live once and then freed *)
  spurious_bdf : (Bus.bdf, Sud_obs.Metrics.counter) Hashtbl.t;
  mutable next_vector : int;
  mutable free_pool : int list;    (* freed vectors awaiting reuse, ascending *)
  qm : metrics;
}
and metrics = {
  qm_delivered : Sud_obs.Metrics.counter;
  qm_spurious : Sud_obs.Metrics.counter;
  qm_masked_dropped : Sud_obs.Metrics.counter;
}

let create cpu preempt klog =
  let c name = Sud_obs.Metrics.counter ~subsystem:"irq" ~name () in
  { cpu;
    irq_cells =
      Array.init (Cpu.cores cpu) (fun i -> Cpu.cell cpu (Printf.sprintf "kernel:irq:cpu%d" i));
    preempt;
    klog;
    handlers = Hashtbl.create 16;
    freed = Hashtbl.create 16;
    spurious_bdf = Hashtbl.create 4;
    next_vector = 32;
    free_pool = [];
    qm =
      { qm_delivered = c "delivered";
        qm_spurious = c "spurious";
        qm_masked_dropped = c "masked_dropped" } }

(* The deliverable vector space is the MSI message's data[7:0] — 256
   vectors, the first 32 reserved, exactly x86's budget.  Numbers past
   255 would be truncated by the bus at delivery time and alias whatever
   old vector shares the low byte, so freed vectors MUST be recycled
   (lowest-first, like the x86 vector matrix allocator) rather than the
   space grown without bound. *)
let max_vector = 256

let alloc_vectors t ~n =
  if n <= 0 then invalid_arg "Irq.alloc_vectors: n must be positive";
  Array.init n (fun _ ->
      match t.free_pool with
      | v :: rest ->
        t.free_pool <- rest;
        v
      | [] ->
        if t.next_vector >= max_vector then
          failwith "Irq.alloc_vectors: vector space exhausted"
        else begin
          let v = t.next_vector in
          t.next_vector <- v + 1;
          v
        end)

(* Default affinity spreads vectors round-robin over the sim CPUs, like
   the usual MSI-X ± irqbalance steady state. *)
let default_affinity t vector = vector mod Cpu.cores t.cpu

let request_irqs t ~vectors ~name fn =
  match Array.to_list vectors |> List.find_opt (Hashtbl.mem t.handlers) with
  | Some v -> Error (Printf.sprintf "vector %d already requested" v)
  | None ->
    Array.iteri
      (fun queue v ->
         Hashtbl.add t.handlers v
           { hname = name;
             fn = (fun ~source -> fn ~queue ~source);
             hits = 0;
             masked = false;
             affinity = default_affinity t v };
         Hashtbl.remove t.freed v)
      vectors;
    Ok ()

let free_irqs t ~vectors =
  Array.iter
    (fun v ->
       if Hashtbl.mem t.handlers v then begin
         Hashtbl.remove t.handlers v;
         Hashtbl.replace t.freed v ();
         t.free_pool <- List.merge compare [ v ] t.free_pool
       end)
    vectors

let with_entry t ~vector what f =
  match Hashtbl.find_opt t.handlers vector with
  | Some e -> f e
  | None -> invalid_arg (Printf.sprintf "Irq.%s: vector %d not requested" what vector)

let set_affinity t ~vector ~cpu =
  if cpu < 0 || cpu >= Cpu.cores t.cpu then
    invalid_arg (Printf.sprintf "Irq.set_affinity: no such cpu %d" cpu);
  with_entry t ~vector "set_affinity" (fun e -> e.affinity <- cpu)

let mask t ~vector = with_entry t ~vector "mask" (fun e -> e.masked <- true)

let spurious_after_free_counter t source =
  match Hashtbl.find_opt t.spurious_bdf source with
  | Some c -> c
  | None ->
    let c =
      Sud_obs.Metrics.counter
        ~labels:[ "bdf", Bus.string_of_bdf source ]
        ~subsystem:"irq" ~name:"spurious_after_free" ()
    in
    Hashtbl.replace t.spurious_bdf source c;
    c

let deliver t ~source ~vector =
  Sud_obs.Metrics.incr t.qm.qm_delivered;
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"irq" ~name:"deliver"
         ~attrs:[ "bdf", Bus.string_of_bdf source; "vector", string_of_int vector ]
         ());
  let model = Cpu.cost_model t.cpu in
  match Hashtbl.find_opt t.handlers vector with
  | None ->
    Sud_obs.Metrics.incr t.qm.qm_spurious;
    (* A flood on a vector that was freed is the signature of a device
       still raising interrupts after release — make it visible to the
       storm detector per offending device, not just in the log. *)
    if Hashtbl.mem t.freed vector then
      Sud_obs.Metrics.incr (spurious_after_free_counter t source);
    Klog.printk t.klog Klog.Warn "irq: spurious vector %d from %s" vector
      (Bus.string_of_bdf source)
  | Some entry when entry.masked ->
    (* Masked at the interrupt controller: the message dies here without
       touching the handler or its siblings. *)
    Sud_obs.Metrics.incr t.qm.qm_masked_dropped
  | Some entry ->
    (* Delivery cost lands on the vector's affine CPU's ledger. *)
    Cpu.account_cell t.irq_cells.(entry.affinity) model.Cost_model.irq_deliver_ns;
    entry.hits <- entry.hits + 1;
    (* Top halves run atomically: blocking inside one is a bug the
       preemption tracker will catch. *)
    Preempt.disable t.preempt;
    Fun.protect ~finally:(fun () -> Preempt.enable t.preempt) (fun () -> entry.fn ~source)

let count t ~vector =
  match Hashtbl.find_opt t.handlers vector with Some e -> e.hits | None -> 0

let metrics t = t.qm
