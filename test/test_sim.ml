(* Unit and property tests for the simulation substrate: engine, fibers,
   synchronization, CPU pool, RNG, stats. *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_after eng 100 (log "b") : Engine.handle);
  ignore (Engine.schedule_after eng 50 (log "a") : Engine.handle);
  ignore (Engine.schedule_after eng 100 (log "c") : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list string)) "time order, FIFO within an instant" [ "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "clock at last event" 100 (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule_after eng 10 ignore : Engine.handle);
  let h = Engine.schedule_after eng 1_000 (fun () -> fired := true) in
  Engine.cancel eng h;
  Alcotest.(check int) "pending counts the live event only" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "nor moves the clock" 10 (Engine.now eng);
  Alcotest.(check int) "nor counts as a step" 1 (Engine.steps eng)

(* Schedule and cancel an event whose closure holds the only reference to
   a fresh buffer; return a weak pointer to the buffer. *)
let cancel_holding eng =
  let w = Weak.create 1 in
  let buf = Bytes.create 64 in
  Weak.set w 0 (Some buf);
  Engine.cancel eng (Engine.schedule_after eng 10 (fun () -> ignore (Bytes.length buf : int)));
  w

let test_engine_cancel_frees () =
  let eng = Engine.create () in
  for _ = 1 to 64 do
    Engine.cancel eng (Engine.schedule_after eng 20 ignore)
  done;
  (* The 65th cancel is past the floor and over half of the queue. *)
  let w = cancel_holding eng in
  Gc.full_major ();
  Alcotest.(check bool) "cancelled event no longer reachable" false (Weak.check w 0);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending eng)

let test_engine_max_time () =
  let eng = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_after eng 10 (fun () -> incr fired) : Engine.handle);
  ignore (Engine.schedule_after eng 1000 (fun () -> incr fired) : Engine.handle);
  Engine.run ~max_time:100 eng;
  Alcotest.(check int) "only events within the bound" 1 !fired;
  Engine.run eng;
  Alcotest.(check int) "remaining events run later" 2 !fired

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
        ignore (Engine.schedule_after eng (-1) ignore : Engine.handle))

let test_fiber_sleep () =
  let eng = Engine.create () in
  let t = ref (-1) in
  ignore
    (Fiber.spawn eng (fun () ->
         ignore (Fiber.sleep eng 500 : Fiber.wake);
         t := Engine.now eng)
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check int) "woke at the right time" 500 !t

let test_fiber_kill_runs_cleanup () =
  let eng = Engine.create () in
  let cleaned = ref false in
  let blocked = ref None in
  let f =
    Fiber.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
             ignore
               (Fiber.suspend (fun self ->
                    blocked := Some self;
                    ignore)
                : Fiber.wake)))
  in
  ignore (Engine.schedule_after eng 10 (fun () -> Fiber.kill f) : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "Fun.protect ran on kill" true !cleaned;
  Alcotest.(check bool) "fiber dead" false (Fiber.is_alive f)

let test_fiber_interrupt () =
  let eng = Engine.create () in
  let got = ref None in
  let f =
    Fiber.spawn eng (fun () -> got := Some (Fiber.sleep eng 1_000_000))
  in
  ignore (Engine.schedule_after eng 10 (fun () -> ignore (Fiber.interrupt f : bool)) : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "woken early with Interrupted" true (!got = Some Fiber.Interrupted);
  Alcotest.(check int) "the interrupt cancelled the sleep's timer" 10 (Engine.now eng)

let test_fiber_stale_wake () =
  let eng = Engine.create () in
  let wakes = ref 0 in
  let f =
    Fiber.spawn eng (fun () ->
        ignore (Fiber.sleep eng 100 : Fiber.wake);
        incr wakes)
  in
  (* Wake it twice at the same instant: second is stale and must be dropped. *)
  ignore
    (Engine.schedule_after eng 50 (fun () ->
         ignore (Fiber.wake f Fiber.Normal : bool);
         Alcotest.(check bool) "second wake rejected" false (Fiber.wake f Fiber.Normal))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check int) "body continued exactly once" 1 !wakes

(* Run [Fiber.poll] in a fiber over [cond eng], counting its checks;
   returns (result, checks, instant it returned). *)
let run_poll ~every_ns ~budget cond =
  let eng = Engine.create () in
  let checks = ref 0 in
  let cond = cond eng in
  let got = ref None in
  ignore
    (Fiber.spawn eng (fun () ->
         let held = Fiber.poll eng ~every_ns ~budget (fun () -> incr checks; cond ()) in
         got := Some (held, !checks, Engine.now eng))
     : Fiber.t);
  Engine.run eng;
  Option.get !got

let test_poll_holds () =
  let held, checks, t = run_poll ~every_ns:1_000 ~budget:5 (fun _ () -> true) in
  Alcotest.(check bool) "held" true held;
  Alcotest.(check int) "one check" 1 checks;
  Alcotest.(check int) "no sleep" 0 t

let test_poll_budget () =
  let held, checks, t = run_poll ~every_ns:1_000 ~budget:5 (fun _ () -> false) in
  Alcotest.(check bool) "never held" false held;
  Alcotest.(check int) "a check around each of the 5 sleeps" 6 checks;
  Alcotest.(check int) "clock advanced by budget * every_ns" 5_000 t

let test_poll_flips () =
  let held, checks, t =
    run_poll ~every_ns:1_000 ~budget:10 (fun eng ->
        let flag = ref false in
        ignore (Engine.schedule_after eng 2_500 (fun () -> flag := true) : Engine.handle);
        fun () -> !flag)
  in
  Alcotest.(check bool) "held" true held;
  Alcotest.(check int) "checks at 0, 1000, 2000, 3000" 4 checks;
  Alcotest.(check int) "returned at the first check after the flip" 3_000 t

let test_waitq_fifo () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Fiber.spawn eng (fun () ->
           ignore (Sync.Waitq.wait q : Fiber.wake);
           order := i :: !order)
       : Fiber.t)
  done;
  ignore
    (Engine.schedule_after eng 10 (fun () ->
         ignore (Sync.Waitq.signal q : bool);
         ignore (Sync.Waitq.signal q : bool);
         ignore (Sync.Waitq.signal q : bool))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO wakeup order" [ 1; 2; 3 ] (List.rev !order)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let r = ref None in
  ignore
    (Fiber.spawn eng (fun () ->
         r := Some (Sync.Waitq.wait_timeout eng (Sync.Waitq.create ()) 100))
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!r = Some Fiber.Timeout)

(* A timed-out wait leaves nothing behind in its queue: a later signal
   skips it for the next live waiter and cannot cut short the fiber's
   next, unrelated wait. *)
let test_waitq_timeout_leaves_no_entry () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let slept_until = ref (-1) and other_woke = ref (-1) in
  ignore
    (Fiber.spawn eng (fun () ->
         Alcotest.(check bool) "timed out" true (Sync.Waitq.wait_timeout eng q 10 = Fiber.Timeout);
         Alcotest.(check int) "one waiter left" 1 (Sync.Waitq.waiters q);
         ignore (Fiber.sleep eng 1_000 : Fiber.wake);
         slept_until := Engine.now eng)
     : Fiber.t);
  ignore
    (Fiber.spawn eng (fun () ->
         ignore (Sync.Waitq.wait q : Fiber.wake);
         other_woke := Engine.now eng)
     : Fiber.t);
  ignore
    (Engine.schedule_after eng 100 (fun () ->
         Alcotest.(check bool) "signal wakes the live waiter" true (Sync.Waitq.signal q);
         Alcotest.(check bool) "and nobody else" false (Sync.Waitq.signal q))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check int) "live waiter woken by the signal" 100 !other_woke;
  Alcotest.(check int) "sleep ran its full length" 1_010 !slept_until

(* An interrupted or killed wait takes its entry with it. *)
let test_waitq_waiters_live_only () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let waiter () = Fiber.spawn eng (fun () -> ignore (Sync.Waitq.wait q : Fiber.wake)) in
  let a = waiter () and b = waiter () and _c = waiter () in
  let counts = ref [] in
  let note n = counts := n :: !counts in
  ignore
    (Engine.schedule_after eng 10 (fun () ->
         note (Sync.Waitq.waiters q);
         ignore (Fiber.interrupt a : bool);
         note (Sync.Waitq.waiters q);
         Fiber.kill b;
         note (Sync.Waitq.waiters q);
         note (Bool.to_int (Sync.Waitq.signal q));
         note (Sync.Waitq.waiters q);
         note (Bool.to_int (Sync.Waitq.signal q)))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list int)) "live waiters only; one signal lands" [ 3; 2; 1; 1; 0; 0 ]
    (List.rev !counts)

(* Spawn a fiber that times out on [q] and ends; return a weak pointer
   to it. *)
let time_out_once eng q =
  let w = Weak.create 1 in
  ignore
    (Fiber.spawn eng (fun () ->
         Weak.set w 0 (Some (Fiber.self ()));
         ignore (Sync.Waitq.wait_timeout eng q 10 : Fiber.wake))
     : Fiber.t);
  w

(* Dead entries are compacted away: the queue keeps no finished fiber. *)
let test_waitq_compacts_dead_entries () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let w = time_out_once eng q in
  Engine.run eng;
  Gc.full_major ();
  Alcotest.(check bool) "finished fiber unreachable" false (Weak.check w 0);
  Alcotest.(check bool) "queue still empty" false (Sync.Waitq.signal q)

(* 10,000 waits, each signalled long before its 5 s timeout: every timer
   dies with its wait, so the queue stays small, the clock never reaches
   a deadline, and every step is a signal or the wake it causes. *)
let test_waitq_early_signal_frees_timers () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let n = 10_000 and peak = ref 0 and normal = ref 0 in
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to n do
           if Sync.Waitq.wait_timeout eng q 5_000_000_000 = Fiber.Normal then incr normal
         done)
     : Fiber.t);
  let rec tick left =
    if left > 0 then
      ignore
        (Engine.schedule_after eng 1 (fun () ->
             peak := max !peak (Engine.pending eng);
             ignore (Sync.Waitq.signal q : bool);
             tick (left - 1))
         : Engine.handle)
  in
  tick n;
  Engine.run eng;
  Alcotest.(check int) "every wait signalled" n !normal;
  Alcotest.(check bool) (Printf.sprintf "pending stays small (peak %d)" !peak) true (!peak <= 4);
  Alcotest.(check int) "no timer fired: spawn + signals + wakes" (1 + (2 * n)) (Engine.steps eng);
  Alcotest.(check int) "clock never reached a deadline" n (Engine.now eng);
  Alcotest.(check int) "queue empty" 0 (Engine.pending eng)

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let mu = Sync.Mutex.create () in
  let trace = Buffer.create 16 in
  for i = 1 to 2 do
    ignore
      (Fiber.spawn eng (fun () ->
           Sync.Mutex.with_lock mu (fun () ->
               Buffer.add_string trace (Printf.sprintf "<%d" i);
               ignore (Fiber.sleep eng 100 : Fiber.wake);
               Buffer.add_string trace (Printf.sprintf "%d>" i)))
       : Fiber.t)
  done;
  Engine.run eng;
  Alcotest.(check string) "critical sections do not interleave" "<11><22>"
    (Buffer.contents trace)

let test_mailbox_blocking () =
  let eng = Engine.create () in
  let mb = Sync.Mailbox.create ~capacity:2 in
  let got = ref [] in
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to 4 do
           match Sync.Mailbox.recv mb with
           | `Ok v -> got := v :: !got
           | `Interrupted -> ()
         done)
     : Fiber.t);
  ignore
    (Fiber.spawn eng (fun () ->
         for i = 1 to 4 do
           ignore (Sync.Mailbox.send mb i : [ `Ok | `Interrupted ])
         done)
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check (list int)) "all values in order" [ 1; 2; 3; 4 ] (List.rev !got)

let test_cpu_serializes () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:1 Cost_model.default in
  let finish = ref [] in
  for i = 1 to 3 do
    ignore
      (Fiber.spawn eng (fun () ->
           Cpu.consume cpu ~label:"t" 1000;
           finish := (i, Engine.now eng) :: !finish)
       : Fiber.t)
  done;
  Engine.run eng;
  let times = List.rev_map snd !finish in
  Alcotest.(check (list int)) "single core serializes three 1us jobs"
    [ 1000; 2000; 3000 ] times;
  Alcotest.(check int) "busy time accumulated" 3000 (Cpu.busy_ns cpu)

let test_cpu_parallel_cores () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  let done_at = ref [] in
  for _ = 1 to 2 do
    ignore
      (Fiber.spawn eng (fun () ->
           Cpu.consume cpu ~label:"t" 1000;
           done_at := Engine.now eng :: !done_at)
       : Fiber.t)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "two cores run two jobs concurrently" [ 1000; 1000 ] !done_at

(* Charges through a label's cell and through the string entry point land
   on one line, and a line nothing was charged to is not listed. *)
let test_cpu_labels () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  let a = Cpu.cell cpu "a" and idle = Cpu.cell cpu "idle" in
  Cpu.account_cell a 100;
  Cpu.account cpu ~label:"b" 200;
  Cpu.account cpu ~label:"a" 50;
  Cpu.account_cell idle 0;
  Alcotest.(check bool) "one cell per label" true (Cpu.cell cpu "a" == a);
  Alcotest.(check int) "label a" 150 (Cpu.busy_of cpu "a");
  Alcotest.(check int) "label b" 200 (Cpu.busy_of cpu "b");
  Alcotest.(check int) "never charged" 0 (Cpu.busy_of cpu "idle");
  Alcotest.(check (list (pair string int))) "sorted labels" [ ("a", 150); ("b", 200) ]
    (Cpu.labels cpu)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_stats_moments () =
  let m = Stats.Moments.create () in
  List.iter (Stats.Moments.add m) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 0.0001)) "mean" 5.0 (Stats.Moments.mean m);
  Alcotest.(check (float 0.01)) "stddev (sample)" 2.138 (Stats.Moments.stddev m)

let test_stats_histogram () =
  let h = Stats.Histogram.create () in
  for i = 1 to 100 do Stats.Histogram.add h (float_of_int i) done;
  Alcotest.(check (float 1.0)) "median" 50.0 (Stats.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "max" 100.0 (Stats.Histogram.max h);
  Alcotest.(check (float 0.0)) "min" 1.0 (Stats.Histogram.min h)

let test_convergence () =
  let m = Stats.Moments.create () in
  for _ = 1 to 10 do Stats.Moments.add m 100.0 done;
  Alcotest.(check bool) "constant samples converge" true
    (Stats.Moments.converged m ~confidence:0.99 ~accuracy:0.05)

(* property tests *)

(* The engine keeps delay-0 events in a lane and the rest in a heap; this
   is a random event program to check their merge against a sorted-list
   reference.  Event [s] (the [s]-th scheduled, so its seq) acts as a pure
   function of the seed and [s]: it may cancel any event scheduled before
   it, then schedules up to two children, most with delay 0 or onto a few
   shared instants.  Of the [n] roots, 60% are cancelled before the run,
   more than 64 and over half of the queue, so compaction runs.  The run
   stops at [merge_horizon], then runs out. *)
let merge_delays = [| 0; 0; 0; 1; 2; 3; 5; 8 |]
let merge_cap = 800
let merge_horizon = 40

let merge_act seed s ~scheduled =
  let r = Rng.create ~seed:(Rng.derive ~root:seed (string_of_int s)) in
  let victim = if Rng.bool r then 1 + Rng.int r scheduled else 0 in
  let kids = if scheduled >= merge_cap then 0 else Rng.int r 3 in
  (victim, List.init kids (fun _ -> merge_delays.(Rng.int r (Array.length merge_delays))))

let merge_root_delay seed i =
  Rng.int (Rng.create ~seed:(Rng.derive ~root:seed (string_of_int (-i)))) 30

let merge_root_cancelled i = i mod 5 < 3

(* Returns the fired (time, seq) stream, (fired, now, pending) at the
   horizon, the trace hash and the choice points the observer saw. *)
let merge_engine seed n ~picker =
  let eng = Engine.create () in
  Engine.set_picker eng picker;
  let points = ref [] in
  Engine.set_observer eng
    (Some (fun ~step ~time ~ready ~pick -> points := (step, time, ready, pick) :: !points));
  let handles = Hashtbl.create 256 and scheduled = ref 0 and fired = ref [] in
  let rec schedule delay =
    incr scheduled;
    let s = !scheduled in
    Hashtbl.replace handles s (Engine.schedule_after eng delay (fun () -> fire s))
  and fire s =
    fired := (Engine.now eng, s) :: !fired;
    let victim, kids = merge_act seed s ~scheduled:!scheduled in
    if victim > 0 then Engine.cancel eng (Hashtbl.find handles victim);
    List.iter schedule kids
  in
  for i = 0 to n - 1 do schedule (merge_root_delay seed i) done;
  for i = 0 to n - 1 do
    if merge_root_cancelled i then Engine.cancel eng (Hashtbl.find handles (i + 1))
  done;
  Engine.run ~max_time:merge_horizon eng;
  let at_horizon = (List.length !fired, Engine.now eng, Engine.pending eng) in
  Engine.run eng;
  (List.rev !fired, at_horizon, Engine.trace_hash eng, List.rev !points)

(* The same program over one list of live (time, seq) pairs kept sorted:
   the ready set is its prefix at the earliest time. *)
let merge_reference seed n ~picker =
  let queue = ref [] and now = ref 0 and steps = ref 0 and scheduled = ref 0 in
  let fired = ref [] and points = ref [] in
  let rec insert ev = function
    | [] -> [ ev ]
    | e :: rest as l -> if compare ev e < 0 then ev :: l else e :: insert ev rest
  in
  let schedule delay =
    incr scheduled;
    queue := insert (!now + delay, !scheduled) !queue
  in
  let cancel s = queue := List.filter (fun (_, s') -> s' <> s) !queue in
  let step max_time =
    match !queue with
    | (t0, _) :: _ when t0 <= max_time ->
      let ready = List.filter (fun (t, _) -> t = t0) !queue in
      let nr = List.length ready in
      let i =
        match picker with
        | Some pick when nr > 1 ->
          let i = pick ~step:!steps ~ready:nr in
          let i = if i < 0 || i >= nr then 0 else i in
          points := (!steps, t0, nr, i) :: !points;
          i
        | Some _ | None -> 0
      in
      let ((t, s) as ev) = List.nth ready i in
      queue := List.filter (fun e -> e <> ev) !queue;
      now := t;
      incr steps;
      fired := ev :: !fired;
      let victim, kids = merge_act seed s ~scheduled:!scheduled in
      if victim > 0 then cancel victim;
      List.iter schedule kids;
      true
    | _ -> false
  in
  for i = 0 to n - 1 do schedule (merge_root_delay seed i) done;
  for i = 0 to n - 1 do if merge_root_cancelled i then cancel (i + 1) done;
  while step merge_horizon do () done;
  let at_horizon = (List.length !fired, !now, List.length !queue) in
  while step max_int do () done;
  (List.rev !fired, at_horizon, List.rev !points)

let merge_order_holds (seed, n) =
  let seed = Int64.of_int seed in
  let fifo, fifo_h, fifo_hash, _ = merge_engine seed n ~picker:None in
  let want, want_h, _ = merge_reference seed n ~picker:None in
  let zero ~step:_ ~ready:_ = 0 in
  let zeros, zeros_h, zeros_hash, zeros_points = merge_engine seed n ~picker:(Some zero) in
  let _, _, want_zero_points = merge_reference seed n ~picker:(Some zero) in
  let mixed ~step ~ready = step * 7 mod (ready + 1) in
  let picked, picked_h, _, picked_points = merge_engine seed n ~picker:(Some mixed) in
  let want_picked, want_picked_h, want_picked_points =
    merge_reference seed n ~picker:(Some mixed)
  in
  fifo = want && fifo_h = want_h
  && zeros = fifo && zeros_h = fifo_h && zeros_hash = fifo_hash
  && zeros_points <> [] && zeros_points = want_zero_points
  && picked = want_picked && picked_h = want_picked_h && picked_points = want_picked_points

let qcheck_cases =
  [ QCheck.Test.make ~name:"rng int bounds" ~count:500
      QCheck.(pair (int_bound 1000) int)
      (fun (n, seed) ->
         let n = n + 1 in
         let rng = Rng.create ~seed:(Int64.of_int seed) in
         let v = Rng.int rng n in
         v >= 0 && v < n);
    QCheck.Test.make ~name:"histogram quantiles monotone" ~count:100
      QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
      (fun xs ->
         QCheck.assume (xs <> []);
         let h = Stats.Histogram.create () in
         List.iter (Stats.Histogram.add h) xs;
         Stats.Histogram.quantile h 0.25 <= Stats.Histogram.quantile h 0.75);
    QCheck.Test.make ~name:"engine events fire in time order" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
      (fun delays ->
         let eng = Engine.create () in
         let fired = ref [] in
         List.iter
           (fun d ->
              ignore (Engine.schedule_after eng d (fun () -> fired := d :: !fired)
                      : Engine.handle))
           delays;
         Engine.run eng;
         let result = List.rev !fired in
         result = List.stable_sort compare delays);
    (* Event i is scheduled [delay] ns out; unless [keep] is 0 it is
       cancelled once event [i + lag] has been scheduled.  With more than
       64 cancelled events, over half of the queue, compaction must run;
       the survivors still fire in (time, seq) order, on the FIFO path and
       on the picker path alike, and the clock ends at the last of them. *)
    QCheck.Test.make ~name:"engine compaction keeps (time, seq) order" ~count:100
      QCheck.(
        list_of_size Gen.(int_range 100 300) (triple (int_bound 500) (int_bound 3) (int_bound 20)))
      (fun ops ->
         let ops = Array.of_list ops in
         let n = Array.length ops in
         let cancelled i = let _, keep, _ = ops.(i) in keep <> 0 in
         let n_cancelled = List.length (List.filter cancelled (List.init n Fun.id)) in
         QCheck.assume (n_cancelled > 64 && 2 * n_cancelled > n);
         let run ~picker =
           let eng = Engine.create () in
           if picker then Engine.set_picker eng (Some (fun ~step:_ ~ready:_ -> 0));
           let fired = ref [] in
           let handles = Array.make n None in
           let due = Array.make n [] in
           Array.iteri
             (fun i (delay, _, lag) ->
                handles.(i) <-
                  Some (Engine.schedule_after eng delay (fun () -> fired := i :: !fired));
                if cancelled i then begin
                  let at = min (n - 1) (i + lag) in
                  due.(at) <- i :: due.(at)
                end;
                List.iter (fun j -> Engine.cancel eng (Option.get handles.(j))) due.(i))
             ops;
           let pending = Engine.pending eng in
           Engine.run eng;
           (List.rev !fired, pending, Engine.now eng)
         in
         let survivors = List.filter (fun i -> not (cancelled i)) (List.init n Fun.id) in
         let delay i = let d, _, _ = ops.(i) in d in
         let expected =
           List.stable_sort (fun a b -> compare (delay a) (delay b)) survivors
         in
         let last = List.fold_left (fun m i -> max m (delay i)) 0 survivors in
         let want = (expected, List.length survivors, last) in
         run ~picker:false = want && run ~picker:true = want);
    (* The FIFO path, a picker that always takes the first ready event and
       a picker that also takes later ones (or out-of-range picks, which
       clamp to 0) all fire what the sorted-list reference fires, and the
       first two leave the same trace hash. *)
    QCheck.Test.make ~name:"engine lane and heap merge in (time, seq) order" ~count:40
      QCheck.(pair int (int_range 110 300))
      merge_order_holds ]

let suite =
  [ Alcotest.test_case "engine: ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: cancel frees the event" `Quick test_engine_cancel_frees;
    Alcotest.test_case "engine: max_time" `Quick test_engine_max_time;
    Alcotest.test_case "engine: negative delay" `Quick test_engine_negative_delay;
    Alcotest.test_case "fiber: sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber: kill runs cleanup" `Quick test_fiber_kill_runs_cleanup;
    Alcotest.test_case "fiber: interrupt" `Quick test_fiber_interrupt;
    Alcotest.test_case "fiber: stale wake dropped" `Quick test_fiber_stale_wake;
    Alcotest.test_case "fiber: poll holds at once" `Quick test_poll_holds;
    Alcotest.test_case "fiber: poll spends its budget" `Quick test_poll_budget;
    Alcotest.test_case "fiber: poll sees a mid-wait flip" `Quick test_poll_flips;
    Alcotest.test_case "waitq: FIFO" `Quick test_waitq_fifo;
    Alcotest.test_case "waitq: timeout" `Quick test_waitq_timeout;
    Alcotest.test_case "waitq: timed-out entry wakes nothing later" `Quick
      test_waitq_timeout_leaves_no_entry;
    Alcotest.test_case "waitq: waiters counts live waits" `Quick test_waitq_waiters_live_only;
    Alcotest.test_case "waitq: dead entries are compacted" `Quick
      test_waitq_compacts_dead_entries;
    Alcotest.test_case "waitq: early signals free their timers" `Quick
      test_waitq_early_signal_frees_timers;
    Alcotest.test_case "mutex: exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mailbox: blocking send/recv" `Quick test_mailbox_blocking;
    Alcotest.test_case "cpu: one core serializes" `Quick test_cpu_serializes;
    Alcotest.test_case "cpu: two cores parallel" `Quick test_cpu_parallel_cores;
    Alcotest.test_case "cpu: per-label accounting" `Quick test_cpu_labels;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "stats: moments" `Quick test_stats_moments;
    Alcotest.test_case "stats: histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats: convergence" `Quick test_convergence ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
