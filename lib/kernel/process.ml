exception Rlimit_exceeded of string

type t = {
  ppid : int;
  puid : int;
  pname : string;
  pcell : Cpu.cell;  (* "proc:<name>", the ledger line of its CPU time *)
  eng : Engine.t;
  mutable alive : bool;
  mutable fibers : Fiber.t list;
  mutable exit_hooks : (unit -> unit) list;
  mutable mem_limit : int option;
  mutable mem_used : int;
}

(* Fiber ids are distinct small integers: they hash to themselves, so
   finding the running process hashes nothing. *)
module By_fiber = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash id = id
  end)

type table = {
  teng : Engine.t;
  tcpu : Cpu.t;
  mutable next_pid : int;
  mutable procs : t list;
  kernel : t;
  by_fiber : t By_fiber.t;
}

let make_proc eng cpu ~pid ~uid ~name =
  { ppid = pid;
    puid = uid;
    pname = name;
    pcell = Cpu.cell cpu ("proc:" ^ name);
    eng;
    alive = true;
    fibers = [];
    exit_hooks = [];
    mem_limit = None;
    mem_used = 0 }

let create_table eng cpu =
  let kernel = make_proc eng cpu ~pid:0 ~uid:0 ~name:"kernel" in
  { teng = eng;
    tcpu = cpu;
    next_pid = 1;
    procs = [ kernel ];
    kernel;
    by_fiber = By_fiber.create 64 }

let kernel_process table = table.kernel

let spawn table ~name ~uid =
  let p = make_proc table.teng table.tcpu ~pid:table.next_pid ~uid ~name in
  table.next_pid <- table.next_pid + 1;
  table.procs <- p :: table.procs;
  p

let pid t = t.ppid
let uid t = t.puid
let name t = t.pname
let cell t = t.pcell
let is_alive t = t.alive
let find table ~pid = List.find_opt (fun p -> p.ppid = pid) table.procs

let spawn_fiber t ?name fn =
  if not t.alive then failwith (t.pname ^ ": process is dead");
  let fname = Option.value ~default:(t.pname ^ "-fiber") name in
  let fiber = Fiber.spawn t.eng ~name:fname fn in
  t.fibers <- fiber :: t.fibers;
  fiber

let current table =
  match Fiber.self () with
  | fiber ->
    let fid = Fiber.id fiber in
    (match By_fiber.find_opt table.by_fiber fid with
     | Some p -> p
     | None ->
       (* Walk process fiber lists lazily and cache the hit. *)
       (match
          List.find_opt
            (fun p -> List.exists (fun f -> Fiber.id f = fid) p.fibers)
            table.procs
        with
        | Some p ->
          By_fiber.replace table.by_fiber fid p;
          p
        | None -> table.kernel))
  | exception Failure _ -> table.kernel

let kill t =
  if t.alive then begin
    t.alive <- false;
    let fibers = t.fibers in
    t.fibers <- [];
    List.iter Fiber.kill fibers;
    let hooks = t.exit_hooks in
    t.exit_hooks <- [];
    List.iter (fun h -> h ()) hooks;
    t.mem_used <- 0
  end

let on_exit t h = t.exit_hooks <- h :: t.exit_hooks

let setrlimit_memory t ~bytes = t.mem_limit <- bytes

let charge_memory t ~bytes =
  (match t.mem_limit with
   | Some limit when t.mem_used + bytes > limit ->
     raise (Rlimit_exceeded (Printf.sprintf "%s: RLIMIT %d + %d > %d" t.pname t.mem_used bytes limit))
   | Some _ | None -> ());
  t.mem_used <- t.mem_used + bytes

let uncharge_memory t ~bytes = t.mem_used <- max 0 (t.mem_used - bytes)
let memory_used t = t.mem_used
