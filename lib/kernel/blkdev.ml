(* The kernel block layer for sud-blk devices: a write-back page cache
   with flush/FUA barriers on top of a plugged request queue that
   C-LOOK-sorts and merges contiguous writes before handing them to the
   attached issuer (the block proxy, or a native driver).

   Durability contract (what the soak oracle holds us to):
   - a plain [write] dirties cache pages and is {e not} durable;
   - [fsync] returning [Ok] means every page dirtied before the call is
     on media — it writes the dirty set back, waits, then sends a Flush
     barrier and waits for that too;
   - [write_fua] is a write-through: durable when it returns.

   The issuer is attachable/detachable at runtime: while detached
   (driver being restarted) requests park in the staging queue and
   dispatch resumes on re-attach, so the cache never observes the
   recovery window.

   As in Linux, where a completed bio wakes only the task waiting for
   it, each batch of requests ([run_bios]) waits on its own wait queue,
   which the batch's last completion signals: a completion never wakes
   a task whose IO is still in flight.

   The cache holds at most [cache_pages] pages and reclaims clean ones
   with a CLOCK hand (see [reclaim]).  Dirty pages are never reclaimed,
   so a cache full of dirty pages grows past the bound until the next
   [fsync] cleans them.  Reclaim only drops a table entry: it takes no
   simulated time and schedules no event.

   The device does not order the commands it holds, so two writes of one
   page on the wire at once could land oldest last.  As with Linux's
   [PG_writeback], a page whose write is on the wire is in [writeback]
   until that request completes, and another write of the page waits
   for it: [fsync] before it snapshots the page, [write_fua] before it
   takes its sectors from the cache.  Every page therefore has at most
   one write on the wire, carrying bytes at least as new as the last
   one's.  A wait that times out leaves the page in [writeback] until
   its request completes.

   A page filled from the device with nothing but zeros (a read of
   never-written media) keeps one shared read-only zero block instead of
   its own 4 KiB, as [Phys_mem] and [Nvme_dev] store nothing for bytes
   never written.  [write]'s [store] is the only place page bytes change,
   and it gives a page its own copy before writing into it. *)

let sector_size = 512
let page_sectors = 8
let page_size = sector_size * page_sectors

let merge_cap = 64                   (* max sectors in one merged request *)
let queue_depth = 32                 (* requests dispatched at once *)
let cache_pages = 1024               (* page-cache bound: 4 MiB *)

type op = Read | Write | Flush

type request = {
  rq_op : op;
  rq_fua : bool;
  rq_lba : int;                      (* first sector *)
  rq_count : int;                    (* sectors *)
  rq_data : bytes;                   (* count*512; filled by the issuer on Read *)
  mutable rq_done : (status:int -> unit) option;
}

(* First completion wins: a replayed request that was already acknowledged
   (e.g. its completion raced the crash) must not double-fire. *)
let complete r ~status =
  match r.rq_done with
  | Some f ->
    r.rq_done <- None;
    f ~status
  | None -> ()

type page = {
  pg_idx : int;
  mutable pg_data : bytes;           (* page_size; [zero_page] until written *)
  mutable pg_dirty : bool;
  mutable pg_ver : int;              (* bumped per write; guards writeback races *)
  mutable pg_ref : bool;             (* hit since the CLOCK hand last passed *)
}

type t = {
  eng : Engine.t;
  name : string;
  mutable capacity : int;            (* sectors; set when a driver registers *)
  cache : (int, page) Hashtbl.t;     (* page index -> page *)
  clock : page Queue.t;              (* every cached page; the hand is the front *)
  mutable dirty_pages : int;         (* cached pages with [pg_dirty] set *)
  writeback : (int, unit) Hashtbl.t; (* pages with a write on the wire *)
  writeback_done : Sync.Waitq.t;     (* woken when a page leaves [writeback] *)
  mutable issue : (request -> unit) option;
  mutable staging : request list;    (* reverse submission order *)
  mutable outstanding : int;
  mutable flush_pending : bool;      (* a Flush is dispatched: barrier *)
  mutable head_pos : int;            (* C-LOOK elevator position *)
  m_cache_hits : Sud_obs.Metrics.counter;
  m_cache_misses : Sud_obs.Metrics.counter;
  m_merges : Sud_obs.Metrics.counter;
  m_flushes : Sud_obs.Metrics.counter;
  m_fua : Sud_obs.Metrics.counter;
  m_reads : Sud_obs.Metrics.counter;
  m_writes : Sud_obs.Metrics.counter;
}

let create ~eng ~name ?(capacity = 0) () =
  let t =
    { eng;
      name;
      capacity;
      cache = Hashtbl.create 256;
      clock = Queue.create ();
      dirty_pages = 0;
      writeback = Hashtbl.create 64;
      writeback_done = Sync.Waitq.create ();
      issue = None;
      staging = [];
      outstanding = 0;
      flush_pending = false;
      head_pos = 0;
      m_cache_hits =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"cache_hits" ();
      m_cache_misses =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"cache_misses" ();
      m_merges =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"request_merges" ();
      m_flushes =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"flush_barriers" ();
      m_fua =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"fua_writes" ();
      m_reads =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"reads_issued" ();
      m_writes =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"writes_issued" () }
  in
  ignore
    (Sud_obs.Metrics.gauge ~labels:[ "dev", name ] ~subsystem:"blk" ~name:"dirty_pages"
       (fun () -> t.dirty_pages)
     : Sud_obs.Metrics.gauge);
  t

let name t = t.name
let capacity t = t.capacity
let set_capacity t c = t.capacity <- c
let attached t = t.issue <> None

(* ---- request queue: plug, C-LOOK sort, merge, bounded dispatch ---- *)

(* C-LOOK: ascending from the elevator's position, then wrap to the
   lowest waiting sector.  Only reorders reads/writes; Flush barriers
   are never staged (fsync drains before sending one). *)
let clook_sort t reqs =
  let above, below = List.partition (fun r -> r.rq_lba >= t.head_pos) reqs in
  let cmp a b = compare a.rq_lba b.rq_lba in
  List.sort cmp above @ List.sort cmp below

(* One request carrying a run of physically contiguous requests in a
   single buffer; its completion fans back out to them, in order. *)
let fuse t first = function
  | [] -> first
  | others ->
    let parts = first :: others in
    Sud_obs.Metrics.add t.m_merges (List.length others);
    let count = List.fold_left (fun n r -> n + r.rq_count) 0 parts in
    let data = Bytes.create (count * sector_size) in
    (* [f r off] for each part, [off] being its byte offset in [data]. *)
    let iter_offsets f =
      ignore (List.fold_left (fun off r -> f r off; off + Bytes.length r.rq_data) 0 parts : int)
    in
    iter_offsets (fun r off -> Bytes.blit r.rq_data 0 data off (Bytes.length r.rq_data));
    { rq_op = first.rq_op;
      rq_fua = first.rq_fua;
      rq_lba = first.rq_lba;
      rq_count = count;
      rq_data = data;
      rq_done =
        Some
          (fun ~status ->
             if first.rq_op = Read && status = 0 then
               iter_offsets (fun r off -> Bytes.blit data off r.rq_data 0 (Bytes.length r.rq_data));
             List.iter (fun r -> complete r ~status) parts) }

(* Fuse each greedy run of physically contiguous same-direction
   neighbours, up to [merge_cap] sectors, into one request. *)
let rec merge_run t = function
  | [] -> []
  | a :: rest ->
    let rec extend others sectors = function
      | b :: rest
        when b.rq_op = a.rq_op && a.rq_op <> Flush && b.rq_fua = a.rq_fua
             && a.rq_lba + sectors = b.rq_lba
             && sectors + b.rq_count <= merge_cap ->
        extend (b :: others) (sectors + b.rq_count) rest
      | rest -> (List.rev others, rest)
    in
    let others, rest = extend [] a.rq_count rest in
    fuse t a others :: merge_run t rest

let rec dispatch t =
  match t.issue with
  | None -> ()
  | Some issue ->
    if (not t.flush_pending) && t.outstanding < queue_depth then begin
      match t.staging with
      | [] -> ()
      | r :: rest ->
        (* A Flush is a full barrier: it waits for the queue to drain and
           nothing dispatches past it until it completes. *)
        if r.rq_op = Flush && t.outstanding > 0 then ()
        else begin
          t.staging <- rest;
          t.outstanding <- t.outstanding + 1;
          if r.rq_op = Flush then t.flush_pending <- true
          else t.head_pos <- r.rq_lba + r.rq_count;
          (match r.rq_op with
           | Read -> Sud_obs.Metrics.incr t.m_reads
           | Write ->
             Sud_obs.Metrics.incr t.m_writes;
             if r.rq_fua then Sud_obs.Metrics.incr t.m_fua
           | Flush -> Sud_obs.Metrics.incr t.m_flushes);
          let inner = r.rq_done in
          r.rq_done <-
            Some
              (fun ~status ->
                 t.outstanding <- t.outstanding - 1;
                 if r.rq_op = Flush then t.flush_pending <- false;
                 (match inner with Some f -> f ~status | None -> ());
                 dispatch t);
          issue r;
          dispatch t
        end
    end

let unplug t =
  let plugged = List.rev t.staging in
  let sortable = List.for_all (fun r -> r.rq_op <> Flush) plugged in
  t.staging <- (if sortable then merge_run t (clook_sort t plugged) else plugged);
  dispatch t

let submit_bio t r =
  t.staging <- r :: t.staging

let attach t issue =
  t.issue <- Some issue;
  unplug t

let detach t = t.issue <- None

(* ---- fiber-blocking waits ---- *)

let default_timeout_ns = 5_000_000_000

(* Submit a batch, unplug, wait for all to land.  The batch's own wait
   queue is signalled by its last completion only, so the one wake this
   wait gets means the batch is done; its timeout timer dies with it. *)
let run_bios t ~timeout_ns reqs =
  let left = ref (List.length reqs) and failed = ref None in
  let landed = Sync.Waitq.create () in
  List.iter
    (fun r ->
       let inner = r.rq_done in
       r.rq_done <-
         Some
           (fun ~status ->
              decr left;
              if status <> 0 && !failed = None then failed := Some status;
              (match inner with Some f -> f ~status | None -> ());
              if !left = 0 then ignore (Sync.Waitq.signal landed : bool));
       submit_bio t r)
    reqs;
  unplug t;
  let all_landed =
    !left = 0
    ||
    match Sync.Waitq.wait_timeout t.eng landed timeout_ns with
    | Fiber.Normal -> !left = 0
    | Fiber.Interrupted | Fiber.Timeout -> false
  in
  if not all_landed then Error "block io timed out"
  else match !failed with
    | Some st -> Error (Printf.sprintf "block io failed (status %d)" st)
    | None -> Ok ()

(* ---- writes on the wire ---- *)

(* Mark pages [first..last] as having a write on the wire; the write's
   completion clears them, whatever its status and whether or not its
   caller is still waiting. *)
let start_writeback t first last =
  for idx = first to last do Hashtbl.replace t.writeback idx () done

let end_writeback t first last =
  for idx = first to last do Hashtbl.remove t.writeback idx done;
  ignore (Sync.Waitq.broadcast t.writeback_done : int)

let on_wire t idx = Hashtbl.mem t.writeback idx

(* Park until some page leaves [writeback]; false once [deadline] has
   passed first.  Callers re-check the pages they wait for. *)
let writeback_wait t ~deadline =
  let left = deadline - Engine.now t.eng in
  left > 0 && Sync.Waitq.wait_timeout t.eng t.writeback_done left = Fiber.Normal

let rec range_on_wire t first last =
  first <= last && (on_wire t first || range_on_wire t (first + 1) last)

(* Wait until no page in [first..last] is on the wire; false if
   [deadline] passes first. *)
let rec await_range t ~deadline first last =
  (not (range_on_wire t first last))
  || (writeback_wait t ~deadline && await_range t ~deadline first last)

(* ---- the write-back page cache ---- *)

let page_of t idx =
  match Hashtbl.find_opt t.cache idx with
  | Some pg ->
    Sud_obs.Metrics.incr t.m_cache_hits;
    pg.pg_ref <- true;
    Some pg
  | None ->
    Sud_obs.Metrics.incr t.m_cache_misses;
    None

(* CLOCK: the hand sweeps the pages in insertion order, dropping clean,
   unreferenced pages until one more page fits under the bound.  A page
   hit since the hand last passed loses its bit and gets another turn,
   as does a dirty page.  Two turns clear every bit, so the sweep finds
   a clean page whenever one is left; with none left it does not start,
   and the cache grows instead.  The hand passes each dirty page it meets,
   so while more than [cache_pages] pages are dirty a clean insert costs
   a walk past all of them: quadratic in host time for a long buffered
   stream that mixes reads into its writes, but no simulated time. *)
let reclaim t =
  while Hashtbl.length t.cache >= cache_pages && t.dirty_pages < Hashtbl.length t.cache do
    let pg = Queue.pop t.clock in
    if pg.pg_ref || pg.pg_dirty then begin
      pg.pg_ref <- false;
      Queue.push pg t.clock
    end
    else Hashtbl.remove t.cache pg.pg_idx
  done

(* Callers insert only pages the cache does not hold.  Reclaim runs
   before the new page joins, so the page being inserted is never its
   victim. *)
let insert_page t idx data =
  reclaim t;
  let pg = { pg_idx = idx; pg_data = data; pg_dirty = false; pg_ver = 0; pg_ref = false } in
  Hashtbl.add t.cache idx pg;
  Queue.push pg t.clock;
  pg

(* The bytes of every cached page that holds only zeros and has not been
   written since it was filled.  Never written into: see [store]. *)
let zero_page = Bytes.make page_size '\000'

(* Pull a page from the device into the cache (read-modify-write miss).
   Another fiber may cache the page while the read is in flight, by
   overwriting it in full or by a fill of its own.  As when Linux adds a
   page the page cache already holds, the cached page wins: replacing it
   with the device's older bytes would drop a write the next fsync owes
   the media.  An all-zero fill keeps [zero_page], not its own buffer. *)
let fill_page t ~timeout_ns idx =
  let data = Bytes.create page_size in
  let r =
    { rq_op = Read; rq_fua = false; rq_lba = idx * page_sectors;
      rq_count = page_sectors; rq_data = data; rq_done = None }
  in
  match run_bios t ~timeout_ns [ r ] with
  | Error e -> Error e
  | Ok () ->
    (match Hashtbl.find_opt t.cache idx with
     | Some pg -> Ok pg
     | None -> Ok (insert_page t idx (if Bytes.equal data zero_page then zero_page else data)))

let check_range t ~lba ~sectors =
  if sectors <= 0 then Error "sector count must be positive"
  else if lba < 0 || (t.capacity > 0 && lba + sectors > t.capacity) then
    Error "out of range"
  else Ok ()

(* Copy sectors [lba, lba + sectors) out of the cache, filling each page
   [lookup] does not find. *)
let copy_out t ~timeout_ns ~lookup ~lba ~sectors =
  let out = Bytes.create (sectors * sector_size) in
  let rec go s =
    if s >= sectors then Ok out
    else begin
      let abs = lba + s in
      let idx = abs / page_sectors and off = abs mod page_sectors in
      let n = min (sectors - s) (page_sectors - off) in
      let copy pg =
        Bytes.blit pg.pg_data (off * sector_size) out (s * sector_size)
          (n * sector_size)
      in
      match lookup t idx with
      | Some pg ->
        copy pg;
        go (s + n)
      | None ->
        (match fill_page t ~timeout_ns idx with
         | Error e -> Error e
         | Ok pg ->
           copy pg;
           go (s + n))
    end
  in
  go 0

let read t ?(timeout_ns = default_timeout_ns) ~lba ~sectors () =
  match check_range t ~lba ~sectors with
  | Error e -> Error e
  | Ok () -> copy_out t ~timeout_ns ~lookup:page_of ~lba ~sectors

let write t ?(timeout_ns = default_timeout_ns) ~lba data () =
  let len = Bytes.length data in
  if len = 0 || len mod sector_size <> 0 then Error "write must be whole sectors"
  else begin
    let sectors = len / sector_size in
    match check_range t ~lba ~sectors with
    | Error e -> Error e
    | Ok () ->
      let rec go s =
        if s >= sectors then Ok ()
        else begin
          let abs = lba + s in
          let idx = abs / page_sectors and off = abs mod page_sectors in
          let n = min (sectors - s) (page_sectors - off) in
          let store pg =
            if pg.pg_data == zero_page then pg.pg_data <- Bytes.copy zero_page;
            Bytes.blit data (s * sector_size) pg.pg_data (off * sector_size)
              (n * sector_size);
            if not pg.pg_dirty then t.dirty_pages <- t.dirty_pages + 1;
            pg.pg_dirty <- true;
            pg.pg_ver <- pg.pg_ver + 1;
            go (s + n)
          in
          if n = page_sectors then
            (* Full-page overwrite: no read-modify-write needed. *)
            store
              (match Hashtbl.find_opt t.cache idx with
               | Some pg -> pg
               | None -> insert_page t idx (Bytes.create page_size))
          else
            match page_of t idx with
            | Some pg -> store pg
            | None ->
              (match fill_page t ~timeout_ns idx with
               | Error e -> Error e
               | Ok pg -> store pg)
        end
      in
      go 0
  end

(* The writeback request for page [idx], which goes on the wire now. *)
let write_bio_of_page t idx pg =
  start_writeback t idx idx;
  { rq_op = Write; rq_fua = false; rq_lba = idx * page_sectors;
    rq_count = page_sectors; rq_data = Bytes.copy pg.pg_data;
    rq_done = Some (fun ~status:_ -> end_writeback t idx idx) }

let fsync t ?(timeout_ns = default_timeout_ns) () =
  let deadline = Engine.now t.eng + timeout_ns in
  let dirty_set () =
    Hashtbl.fold (fun idx pg acc -> if pg.pg_dirty then (idx, pg, pg.pg_ver) :: acc else acc)
      t.cache []
    (* Writeback in page order, not hash order: bio submission order is
       visible to the device (and to schedule replay hashes). *)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (* Snapshot the dirty set once none of its pages has a write on the
     wire.  A page cleaned during the wait was written back by the fsync
     that cleaned it, and this call's Flush covers that write too. *)
  let rec settle () =
    let dirty = dirty_set () in
    if not (List.exists (fun (idx, _, _) -> on_wire t idx) dirty) then Some dirty
    else if writeback_wait t ~deadline then settle ()
    else None
  in
  match settle () with
  | None -> Error "block io timed out"
  | Some dirty ->
    let bios = List.map (fun (idx, pg, _) -> write_bio_of_page t idx pg) dirty in
    match run_bios t ~timeout_ns bios with
    | Error e -> Error e
    | Ok () ->
      (* Clean only the pages nobody re-dirtied while writeback ran (and
         that a concurrent fsync has not cleaned already). *)
      List.iter
        (fun (_, pg, ver) ->
           if pg.pg_ver = ver && pg.pg_dirty then begin
             pg.pg_dirty <- false;
             t.dirty_pages <- t.dirty_pages - 1
           end)
        dirty;
      let barrier =
        { rq_op = Flush; rq_fua = false; rq_lba = 0; rq_count = 0;
          rq_data = Bytes.empty; rq_done = None }
      in
      run_bios t ~timeout_ns [ barrier ]

(* Write-through: durable when it returns, no flush needed.  The cache is
   updated too so subsequent reads hit.  The request goes out once no
   write of its pages is on the wire, carrying the sectors' bytes as the
   cache holds them then: another write may have changed them while this
   one waited, and sending this call's older bytes after that write's
   writeback would undo it on media.  A page the cache dropped meanwhile
   was written back whole before it went, so a fill reads its newest
   bytes. *)
let write_fua t ?(timeout_ns = default_timeout_ns) ~lba data () =
  match write t ~timeout_ns ~lba data () with
  | Error e -> Error e
  | Ok () ->
    let sectors = Bytes.length data / sector_size in
    let first = lba / page_sectors and last = (lba + sectors - 1) / page_sectors in
    if not (await_range t ~deadline:(Engine.now t.eng + timeout_ns) first last) then
      Error "block io timed out"
    else begin
      start_writeback t first last;
      let cached t idx = Hashtbl.find_opt t.cache idx in
      match copy_out t ~timeout_ns ~lookup:cached ~lba ~sectors with
      | Error e ->
        end_writeback t first last;
        Error e
      | Ok bytes ->
        let r =
          { rq_op = Write; rq_fua = true; rq_lba = lba; rq_count = sectors; rq_data = bytes;
            rq_done = Some (fun ~status:_ -> end_writeback t first last) }
        in
        (* The sectors are durable once this returns, but their cache pages
           stay dirty: the next fsync writes them back again, which is
           redundant but never wrong. *)
        run_bios t ~timeout_ns [ r ]
    end

let staged_requests t = List.length t.staging
let cached_pages t = Hashtbl.length t.cache

let resident_pages t =
  Hashtbl.fold (fun _ pg n -> if pg.pg_data == zero_page then n else n + 1) t.cache 0

let dirty_pages t = t.dirty_pages

let metrics t =
  ( Sud_obs.Metrics.get t.m_cache_hits,
    Sud_obs.Metrics.get t.m_cache_misses,
    Sud_obs.Metrics.get t.m_merges,
    Sud_obs.Metrics.get t.m_flushes )

(* ---- the kernel's block-device registry ---- *)

type registry = { mutable devs : (string * t) list }

let registry_create () = { devs = [] }

let register reg dev =
  reg.devs <- (name dev, dev) :: List.remove_assoc (name dev) reg.devs

let find reg n = List.assoc_opt n reg.devs
