module Waitq = struct
  (* An entry lives exactly as long as the wait that filed it: whatever
     ends the wait (signal, timeout, interrupt, kill) kills the entry at
     once, through the suspension's release. *)
  type entry = { fiber : Fiber.t; mutable live : bool }

  type t = { q : entry Queue.t; mutable live : int }

  let create () = { q = Queue.create (); live = 0 }

  (* Once dead entries outnumber live ones, rotate the queue once and keep
     only the live entries, in order. *)
  let compact t =
    if Queue.length t.q > 2 * t.live then
      for _ = 1 to Queue.length t.q do
        let e = Queue.pop t.q in
        if e.live then Queue.push e t.q
      done

  let file t fiber =
    let e = { fiber; live = true } in
    Queue.push e t.q;
    t.live <- t.live + 1;
    fun () ->
      e.live <- false;
      t.live <- t.live - 1;
      compact t

  let wait t = Fiber.suspend (file t)

  let wait_timeout engine t ns =
    Fiber.suspend (fun fiber ->
        let unfile = file t fiber in
        let timer =
          Engine.schedule_after engine ns (fun () ->
              ignore (Fiber.wake fiber Fiber.Timeout : bool))
        in
        fun () ->
          Engine.cancel engine timer;
          unfile ())

  let rec signal t =
    match Queue.take_opt t.q with
    | None -> false
    | Some e -> (e.live && Fiber.wake e.fiber Fiber.Normal) || signal t

  let broadcast t =
    let n = ref 0 in
    while signal t do incr n done;
    !n

  let waiters t = t.live
end

module Mutex = struct
  type t = { mutable owner : Fiber.t option; waiters : Waitq.t }

  let create () = { owner = None; waiters = Waitq.create () }

  let locked t = Option.is_some t.owner

  let rec lock t =
    match t.owner with
    | None -> t.owner <- Some (Fiber.self ())
    | Some _ ->
      (* Interrupts do not abort lock acquisition; retry until owned. *)
      ignore (Waitq.wait t.waiters : Fiber.wake);
      lock t

  let unlock t =
    match t.owner with
    | None -> invalid_arg "Sync.Mutex.unlock: not locked"
    | Some _ ->
      t.owner <- None;
      ignore (Waitq.signal t.waiters : bool)

  let with_lock t fn =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) fn
end

module Condvar = struct
  type t = { waiters : Waitq.t }

  let create () = { waiters = Waitq.create () }

  let wait t mu =
    Mutex.unlock mu;
    let w = Waitq.wait t.waiters in
    Mutex.lock mu;
    w

  let signal t = ignore (Waitq.signal t.waiters : bool)
  let broadcast t = ignore (Waitq.broadcast t.waiters : int)
end

module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    capacity : int;
    readers : Waitq.t;
    writers : Waitq.t;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
    { items = Queue.create (); capacity; readers = Waitq.create (); writers = Waitq.create () }

  let length t = Queue.length t.items

  let try_send t x =
    if Queue.length t.items >= t.capacity then false
    else begin
      Queue.push x t.items;
      ignore (Waitq.signal t.readers : bool);
      true
    end

  let rec send t x =
    if try_send t x then `Ok
    else
      match Waitq.wait t.writers with
      | Fiber.Interrupted -> `Interrupted
      | Fiber.Normal | Fiber.Timeout -> send t x

  let try_recv t =
    match Queue.take_opt t.items with
    | None -> None
    | Some x ->
      ignore (Waitq.signal t.writers : bool);
      Some x

  let rec recv t =
    match try_recv t with
    | Some x -> `Ok x
    | None ->
      (match Waitq.wait t.readers with
       | Fiber.Interrupted -> `Interrupted
       | Fiber.Normal | Fiber.Timeout -> recv t)

  let rec recv_timeout engine t ns =
    match try_recv t with
    | Some x -> `Ok x
    | None ->
      let deadline = Engine.now engine + ns in
      (match Waitq.wait_timeout engine t.readers ns with
       | Fiber.Interrupted -> `Interrupted
       | Fiber.Timeout -> (match try_recv t with Some x -> `Ok x | None -> `Timeout)
       | Fiber.Normal ->
         let remaining = deadline - Engine.now engine in
         if remaining <= 0 then
           match try_recv t with Some x -> `Ok x | None -> `Timeout
         else recv_timeout engine t remaining)
end
