(* sud-blk: the block datapath end to end — hosted NVMe driver, kernel
   block layer, proxy, and the crash-consistent recovery machinery. *)

open Helpers

type bw = {
  nvme : Nvme_dev.t;
  bdf : Bus.bdf;
  sp : Safe_pci.t;
}

let setup_nvme (k : Kernel.t) =
  let nvme = Nvme_dev.create k.Kernel.eng () in
  let bdf = Kernel.attach_pci k (Nvme_dev.device nvme) in
  let sp = Safe_pci.init k in
  { nvme; bdf; sp }

let page ~seed =
  Bytes.init Blkdev.page_size (fun i -> Char.chr ((seed * 31 + i) land 0xff))

let sector_of_page data s = Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size

let check_media_page nvme ~lba data what =
  for s = 0 to Blkdev.page_sectors - 1 do
    match Nvme_dev.media_sector nvme ~lba:(lba + s) with
    | None -> Alcotest.failf "%s: sector %d never persisted" what (lba + s)
    | Some sec ->
      Alcotest.(check string)
        (Printf.sprintf "%s: sector %d" what (lba + s))
        (Bytes.to_string (sector_of_page data s))
        (Bytes.to_string sec)
  done

let launch_blk k w =
  let s =
    ok_or_fail "start_blk" (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver)
  in
  (s, Option.get (Proxy_blk.blkdev (Driver_host.proxy s)))

let cache_hits bd = let h, _, _, _ = Blkdev.metrics bd in h
let cache_misses bd = let _, m, _, _ = Blkdev.metrics bd in m

(* Hosted driver registers; write -> cache, fsync -> media, read back. *)
let test_smoke () =
  run_in_kernel setup_nvme (fun k w ->
      let s = ok_or_fail "start_blk" (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver) in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      Alcotest.(check int) "capacity" (Nvme_dev.capacity w.nvme) (Blkdev.capacity bd);
      Alcotest.(check bool) "registered in the kernel table" true
        (Blkdev.find k.Kernel.blk "nvme" <> None);
      let data = page ~seed:1 in
      ok_or_fail "write" (Blkdev.write bd ~lba:0 data ());
      Alcotest.(check bool) "not durable before fsync" true
        (Nvme_dev.media_sector w.nvme ~lba:0 = None);
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:0 data "after fsync";
      let rd = ok_or_fail "read" (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "read back" (Bytes.to_string data) (Bytes.to_string rd);
      (* A cold read (uncached page) round-trips through the driver. *)
      let data2 = page ~seed:2 in
      ok_or_fail "write 2" (Blkdev.write bd ~lba:8 data2 ());
      ok_or_fail "fsync 2" (Blkdev.fsync bd ());
      let rd2 = ok_or_fail "read 2" (Blkdev.read bd ~lba:8 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "read back 2" (Bytes.to_string data2) (Bytes.to_string rd2);
      Driver_host.kill s)

(* FUA write-through: durable without any flush. *)
let test_fua () =
  run_in_kernel setup_nvme (fun k w ->
      let s = ok_or_fail "start_blk" (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver) in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      let data = page ~seed:7 in
      ok_or_fail "write_fua" (Blkdev.write_fua bd ~lba:16 data ());
      check_media_page w.nvme ~lba:16 data "after FUA";
      Alcotest.(check int) "fua reached the device" 1 (Nvme_dev.fua_writes w.nvme);
      Driver_host.kill s)

(* 16 IOs in flight at once — 8 cold reads, 8 FUA writes: each waits on
   its own completion, and its timeout timer dies with its wait, so the
   engine's queue returns to what it held before the IO. *)
let test_concurrent_io_leaves_no_events () =
  run_in_kernel setup_nvme (fun k w ->
      let s =
        ok_or_fail "start_blk"
          (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver)
      in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      let eng = k.Kernel.eng in
      (* Let the bring-up settle, so [before] counts only the idle load. *)
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      let before = Engine.pending eng in
      let finished = ref 0 in
      for i = 0 to 15 do
        let lba = i * Blkdev.page_sectors in
        ignore
          (Fiber.spawn eng (fun () ->
               (if i mod 2 = 0 then
                  ignore
                    (ok_or_fail "read" (Blkdev.read bd ~lba ~sectors:Blkdev.page_sectors ())
                     : bytes)
                else ok_or_fail "write_fua" (Blkdev.write_fua bd ~lba (page ~seed:i) ()));
               incr finished)
           : Fiber.t)
      done;
      if not (Fiber.poll eng ~every_ns:100_000 ~budget:1_000 (fun () -> !finished = 16)) then
        Alcotest.fail "IO never completed";
      Alcotest.(check int) "no event left behind by the IO" before (Engine.pending eng);
      Driver_host.kill s)

(* A read miss whose fill lands after another fiber overwrote the page
   in full must keep the newer page: fiber A reads page 5, and while its
   read is in flight the main fiber writes page 5, waits for A, then
   fsyncs.  The fsync's [Ok] promises the write reached the media. *)
let test_fill_keeps_page_written_meanwhile () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      let eng = k.Kernel.eng in
      let lba = 5 * Blkdev.page_sectors in
      let misses0 = cache_misses bd and read_done = ref false in
      ignore
        (Fiber.spawn eng (fun () ->
             ignore
               (ok_or_fail "read" (Blkdev.read bd ~lba ~sectors:Blkdev.page_sectors ()) : bytes);
             read_done := true)
         : Fiber.t);
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:1_000 (fun () -> cache_misses bd > misses0)) then
        Alcotest.fail "the read never missed";
      let data = page ~seed:9 in
      ok_or_fail "write" (Blkdev.write bd ~lba data ());
      Alcotest.(check bool) "the write landed while the fill was in flight" false !read_done;
      if not (Fiber.poll eng ~every_ns:100_000 ~budget:1_000 (fun () -> !read_done)) then
        Alcotest.fail "the read never completed";
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba data "write made during the fill";
      Driver_host.kill s)

(* A driver that accepts every request and completes none until the
   test says so. *)
let holding_driver held =
  { Nvme.driver with
    Driver_api.bd_probe =
      (fun _ _ cb ->
         Ok
           { Driver_api.bi_capacity = 1024;
             bi_queues = 1;
             bi_submit =
               (fun ~queue ~tag ~op:_ ~lba:_ ~count:_ ~addr:_ ->
                  held := (fun status -> cb.Driver_api.bc_complete ~queue ~tag ~status) :: !held;
                  `Ok) }) }

(* A read that completes with status 0 after its grant was revoked has
   no bytes the proxy could copy: it fails and caches nothing, rather
   than hand back a page nobody filled. *)
let test_read_without_its_bytes_fails () =
  run_in_kernel setup_nvme (fun k w ->
      let held = ref [] in
      let s =
        ok_or_fail "launch"
          (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf (holding_driver held))
      in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      let eng = k.Kernel.eng and result = ref None in
      ignore
        (Fiber.spawn eng (fun () ->
             result := Some (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()))
         : Fiber.t);
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:1_000 (fun () -> !held <> [])) then
        Alcotest.fail "the read never reached the driver";
      Safe_pci.release (Driver_host.grant s);
      List.iter (fun complete -> complete 0) !held;
      Uchan.flush (Driver_host.chan s);
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:1_000 (fun () -> !result <> None)) then
        Alcotest.fail "the read never completed";
      (match !result with
       | Some (Ok _) -> Alcotest.fail "a read with no bytes copied succeeded"
       | Some (Error _) | None -> ());
      Alcotest.(check int) "nothing cached" 0 (Blkdev.cached_pages bd);
      Driver_host.kill s)

(* A kill that lands while the proxy charges a read completion's copy
   revokes the grant under that copy: the read must fail with a status,
   not abort the run.  Four cold reads are in flight; one run per kill
   instant, every 100 ns over the 60 us that follow. *)
let test_kill_during_read_copy () =
  let aborted = ref [] in
  for i = 0 to 600 do
    let at = i * 100 in
    match
      run_in_kernel setup_nvme (fun k w ->
          let s, bd = launch_blk k w in
          let eng = k.Kernel.eng in
          for r = 0 to 3 do
            ignore
              (Fiber.spawn eng (fun () ->
                   ignore
                     (Blkdev.read bd ~lba:(r * Blkdev.page_sectors)
                        ~sectors:Blkdev.page_sectors ()
                      : (bytes, string) result))
               : Fiber.t)
          done;
          ignore (Fiber.sleep eng at : Fiber.wake);
          Driver_host.kill s;
          ignore (Fiber.sleep eng 100_000 : Fiber.wake))
    with
    | () -> ()
    | exception e -> aborted := Printf.sprintf "%d ns: %s" at (Printexc.to_string e) :: !aborted
  done;
  Alcotest.(check (list string)) "kill instants that aborted the run" [] (List.rev !aborted)

(* The page cache's bound, a constant of Blkdev. *)
let cache_bound = 1024

let read_page bd idx =
  ignore
    (ok_or_fail "read"
       (Blkdev.read bd ~lba:(idx * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors ())
     : bytes)

(* Whether re-reading page [idx] hits the cache. *)
let cached bd idx =
  let h0 = cache_hits bd in
  read_page bd idx;
  cache_hits bd > h0

(* A cold stream longer than the bound keeps the bound: the oldest page
   is gone, the newest is still cached. *)
let test_cache_is_bounded () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      for idx = 0 to 1099 do read_page bd idx done;
      Alcotest.(check int) "clean pages held" cache_bound (Blkdev.cached_pages bd);
      Alcotest.(check bool) "newest page still cached" true (cached bd 1099);
      Alcotest.(check bool) "first page reclaimed" false (cached bd 0);
      Driver_host.kill s)

(* Pages filled from never-written media hold only zeros and share one
   block: cold reads of 512 such pages leave no page owning storage.  A
   one-sector write gives its page its own copy; that page reads back
   the sector over zeros, and the shared block still reads zeros for the
   other 511. *)
let test_zero_fills_share_one_block () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      let n = 512 in
      for idx = 0 to n - 1 do read_page bd idx done;
      Alcotest.(check int) "pages cached" n (Blkdev.cached_pages bd);
      Alcotest.(check int) "zero fills own no storage" 0 (Blkdev.resident_pages bd);
      let sector = Bytes.make Blkdev.sector_size 'w' and written = 7 in
      let lba = (written * Blkdev.page_sectors) + 3 in
      ok_or_fail "write" (Blkdev.write bd ~lba sector ());
      Alcotest.(check int) "the written page owns its bytes" 1 (Blkdev.resident_pages bd);
      let zeros = Bytes.make Blkdev.page_size '\000' in
      let expect = Bytes.copy zeros in
      Bytes.blit sector 0 expect (3 * Blkdev.sector_size) Blkdev.sector_size;
      for idx = 0 to n - 1 do
        let got =
          ok_or_fail "read"
            (Blkdev.read bd ~lba:(idx * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors ())
        in
        Alcotest.(check string) (Printf.sprintf "page %d" idx)
          (Bytes.to_string (if idx = written then expect else zeros))
          (Bytes.to_string got)
      done;
      Driver_host.kill s)

(* Dirty pages are never reclaimed, and neither is the page being
   inserted: 1,100 buffered writes grow the cache past its bound, and
   the fsync puts every one of them on the media.  A miss while every
   cached page is dirty adds a clean page, which the next miss reclaims
   past all the dirty ones. *)
let test_dirty_pages_outgrow_the_bound () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      let n = 1100 in
      for idx = 0 to n - 1 do
        ok_or_fail "write" (Blkdev.write bd ~lba:(idx * Blkdev.page_sectors) (page ~seed:idx) ())
      done;
      Alcotest.(check int) "every dirty page held" n (Blkdev.cached_pages bd);
      read_page bd n;
      Alcotest.(check int) "a clean page joins the dirty ones" (n + 1) (Blkdev.cached_pages bd);
      read_page bd (n + 1);
      Alcotest.(check int) "and gives way to the next" (n + 1) (Blkdev.cached_pages bd);
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      for idx = 0 to n - 1 do
        check_media_page w.nvme ~lba:(idx * Blkdev.page_sectors) (page ~seed:idx)
          (Printf.sprintf "page %d" idx)
      done;
      (* Clean now, so the next miss brings the cache back to its bound. *)
      read_page bd (n + 2);
      Alcotest.(check int) "back to the bound" cache_bound (Blkdev.cached_pages bd);
      Driver_host.kill s)

(* Two fsyncs that both caught page 0 dirty clean it once between them:
   the cache's dirty count, which decides whether reclaim may sweep,
   stays exact. *)
let test_concurrent_fsyncs_count_a_page_once () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      let eng = k.Kernel.eng and synced = ref 0 in
      ok_or_fail "write" (Blkdev.write bd ~lba:0 (page ~seed:3) ());
      Alcotest.(check int) "one dirty page" 1 (Blkdev.dirty_pages bd);
      for _ = 1 to 2 do
        ignore
          (Fiber.spawn eng (fun () -> ok_or_fail "fsync" (Blkdev.fsync bd ()); incr synced)
           : Fiber.t)
      done;
      if not (Fiber.poll eng ~every_ns:100_000 ~budget:1_000 (fun () -> !synced = 2)) then
        Alcotest.fail "the fsyncs never completed";
      Alcotest.(check int) "no dirty page left" 0 (Blkdev.dirty_pages bd);
      Driver_host.kill s)

(* CLOCK's second chance: with the cache full, page 0 is hit and then a
   new page misses.  The hand passes page 0 (clearing its bit) and
   reclaims page 1 instead. *)
let test_clock_spares_a_hit_page () =
  run_in_kernel setup_nvme (fun k w ->
      let s, bd = launch_blk k w in
      for idx = 0 to cache_bound - 1 do read_page bd idx done;
      Alcotest.(check bool) "page 0 hit" true (cached bd 0);
      read_page bd cache_bound;
      Alcotest.(check bool) "page 0 survived the sweep" true (cached bd 0);
      Alcotest.(check bool) "page 1 reclaimed" false (cached bd 1);
      Driver_host.kill s)

let blk_policy =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000;
    max_restarts = 100 }

let nvme_factory ~attempt:_ = Nvme.driver

(* Supervised kill: acked-but-unflushed writes survive the crash via
   replay — the device write cache is volatile and reset drops it, so
   only the proxy's retention can bring the data back. *)
let test_crash_replay () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let data = page ~seed:3 in
      ok_or_fail "write" (Blkdev.write bd ~lba:0 data ());
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      (* A second write, acked but NOT flushed: lives only in the device's
         volatile cache and the proxy's retention. *)
      let data2 = page ~seed:4 in
      ok_or_fail "write unflushed" (Blkdev.write bd ~lba:0 data2 ());
      Alcotest.(check bool) "write is cached, not durable" true
        (Nvme_dev.media_sector w.nvme ~lba:0 <> None);
      (* Crash the driver: FLR drops the device cache. *)
      (match Supervisor.proc sv with
       | Some p -> Process.kill p
       | None -> Alcotest.fail "no driver process");
      if
        not
          (Fiber.poll k.Kernel.eng ~every_ns:1_000_000 ~budget:1_000 (fun () ->
               (Supervisor.stats sv).Supervisor.st_restarts >= 1
               && Supervisor.state sv = Supervisor.Running))
      then Alcotest.fail "no recovery";
      (* The acked write must survive: fsync through the fresh generation,
         then the media is the ground truth. *)
      ok_or_fail "fsync after recovery" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:0 data2 "acked write after crash";
      let rd = ok_or_fail "read" (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "cache agrees" (Bytes.to_string data2) (Bytes.to_string rd);
      Supervisor.stop sv)

(* The shared pool stays IOTLB-resident: a burst of 4 KiB cold reads
   from 16 readers through a supervised 4-queue NVMe finds at least 85%
   of its translations in the IOTLB, since each pool buffer's
   single-page requests use a page in a set of their own. *)
let test_cold_reads_stay_iotlb_resident () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let iotlb () =
        let m = Iommu.metrics k.Kernel.iommu in
        ( Sud_obs.Metrics.gauge_value m.Iommu.im_hits,
          Sud_obs.Metrics.gauge_value m.Iommu.im_misses )
      in
      let readers = 16 and reads = 64 in
      let hits0, misses0 = iotlb () in
      let running = ref readers in
      for r = 0 to readers - 1 do
        ignore
          (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"cold-reader"
             (fun () ->
                for j = 0 to reads - 1 do
                  let lba = ((r * 128) + j) * Blkdev.page_sectors in
                  ignore
                    (ok_or_fail "cold read"
                       (Blkdev.read bd ~lba ~sectors:Blkdev.page_sectors ())
                     : bytes)
                done;
                decr running)
           : Fiber.t)
      done;
      if not (Fiber.poll k.Kernel.eng ~every_ns:100_000 ~budget:10_000 (fun () -> !running = 0))
      then Alcotest.fail "the reads never finished";
      let hits1, misses1 = iotlb () in
      let hits = hits1 - hits0 and misses = misses1 - misses0 in
      let ratio = float_of_int hits /. float_of_int (hits + misses) in
      if ratio < 0.85 then
        Alcotest.failf "IOTLB hit ratio %.3f (%d hits, %d misses) under 0.85" ratio hits misses;
      Supervisor.stop sv)

(* A restart with nothing in flight, retained or owed: the write and the
   flush staged across the death go out once, after the resume, so the
   flush is not left waiting on a request the fresh driver never had and
   the honest driver is not declared hung. *)
let test_clean_restart () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:{ blk_policy with Supervisor.standby = false }
             ~bdf:w.bdf nvme_factory)
      in
      let reasons = ref [] in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected why -> reasons := why :: !reasons
          | _ -> ());
      let bd = Option.get (Supervisor.blkdev sv) in
      ok_or_fail "write 1" (Blkdev.write bd ~lba:0 (page ~seed:1) ());
      ok_or_fail "fsync 1" (Blkdev.fsync bd ());
      ignore (Fiber.sleep k.Kernel.eng 20_000_000 : Fiber.wake);
      let data = page ~seed:2 in
      ok_or_fail "write 2" (Blkdev.write bd ~lba:0 data ());
      (match Supervisor.proc sv with
       | Some p -> Process.kill p
       | None -> Alcotest.fail "no driver process");
      ok_or_fail "fsync across the restart" (Blkdev.fsync bd ());
      Alcotest.(check (list string)) "one detection, the death" [ "driver process died" ]
        (List.rev !reasons);
      check_media_page w.nvme ~lba:0 data "second write";
      Supervisor.stop sv)

(* Stop now, then check 50 ms on that the stop was final: the
   supervisor still stopped, the blkdev detached, no generation
   installed, and neither a detection nor a device reset after it. *)
let blk_stop_is_final k sv =
  let detections () = (Supervisor.stats sv).Supervisor.st_detections in
  let at = Engine.now k.Kernel.eng and seen = detections () in
  Supervisor.stop sv;
  ignore (Fiber.sleep k.Kernel.eng 50_000_000 : Fiber.wake);
  Alcotest.(check bool) "still stopped" true (Supervisor.state sv = Supervisor.Stopped);
  Alcotest.(check bool) "blkdev detached" false
    (Blkdev.attached (Option.get (Supervisor.blkdev sv)));
  Alcotest.(check bool) "no driver process" true (Supervisor.proc sv = None);
  Alcotest.(check int) "no detection after the stop" seen (detections ());
  Alcotest.(check int) "no reset after the stop" 0
    (List.length
       (List.filter (fun (ts, _, _) -> ts >= at)
          (Klog.matching k.Kernel.klog "function-level reset")))

let start_blk_supervised ?(standby = true) k w =
  ok_or_fail "start_blk supervised"
    (Supervisor.start_blk k w.sp ~policy:{ blk_policy with Supervisor.standby } ~bdf:w.bdf
       nvme_factory)

(* A stop that lands once a restart has installed the next generation,
   while its resume replays the retained writes, waits for the swap and
   then stops that generation for good.  A writer keeps writes retained:
   a write every 5 us and an fsync every eighth. *)
let test_stop_during_resume ~standby () =
  run_in_kernel setup_nvme (fun k w ->
      let eng = k.Kernel.eng in
      let sv = start_blk_supervised ~standby k w in
      if standby then
        Alcotest.(check bool) "standby parks Ready" true
          (Fault_inject.wait_standby_ready ~eng sv ~budget_ms:2_000);
      let bd = Option.get (Supervisor.blkdev sv) in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"writer" (fun () ->
             let n = ref 0 in
             while Supervisor.state sv <> Supervisor.Stopped do
               ignore
                 (Blkdev.write bd ~lba:(!n mod 64 * Blkdev.page_sectors) (page ~seed:!n) ()
                  : (unit, string) result);
               if !n mod 8 = 7 then ignore (Blkdev.fsync bd () : (unit, string) result);
               ignore (Fiber.sleep eng 5_000 : Fiber.wake);
               incr n
             done)
         : Fiber.t);
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      (match Supervisor.proc sv with
       | Some p -> Process.kill p
       | None -> Alcotest.fail "no driver process");
      Alcotest.(check bool) "the next generation is installed and resuming" true
        (Fiber.poll eng ~every_ns:100 ~budget:1_000_000 (fun () ->
             Supervisor.proc sv <> None && Supervisor.state sv = Supervisor.Recovering));
      blk_stop_is_final k sv)

(* A stop that lands during a health check waits for the heartbeat's
   answer; it does not turn into a detection, a reset and a restart. *)
let test_stop_during_health_check () =
  run_in_kernel setup_nvme (fun k w ->
      let sv = start_blk_supervised k w in
      let up () =
        match Supervisor.chan sv with
        | Some c -> Sud_obs.Metrics.get (Uchan.metrics c).Uchan.um_up
        | None -> 0
      in
      let before = up () in
      Alcotest.(check bool) "a heartbeat is in flight" true
        (Fiber.poll k.Kernel.eng ~every_ns:100 ~budget:100_000 (fun () -> up () > before));
      blk_stop_is_final k sv)

(* A driver that registers one queue, accepts every submission and
   completes none; [forge] receives its completion callback. *)
let forging_driver forge =
  { Nvme.driver with
    Driver_api.bd_probe =
      (fun _ _ cb ->
         forge := Some (fun ~tag -> cb.Driver_api.bc_complete ~queue:0 ~tag ~status:0);
         Ok
           { Driver_api.bi_capacity = 1024;
             bi_queues = 1;
             bi_submit = (fun ~queue:_ ~tag:_ ~op:_ ~lba:_ ~count:_ ~addr:_ -> `Ok) }) }

(* Two generations on one persist record: the first dies holding a FUA
   write (tag 0), and the second, before any resume has sent it that
   write, completes tag 0.  It cannot know that tag, so the completion is
   forged and the write stays unacknowledged. *)
let test_fresh_generation_cannot_complete_the_dead_ones () =
  run_in_kernel setup_nvme (fun k w ->
      let cls = Driver_host.blk ~adopt:(Proxy_blk.persist_create ()) () in
      let held = ref [] in
      let first =
        ok_or_fail "first generation" (Driver_host.launch k w.sp cls ~bdf:w.bdf (holding_driver held))
      in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy first)) in
      let eng = k.Kernel.eng and acked = ref None in
      ignore
        (Fiber.spawn eng (fun () -> acked := Some (Blkdev.write_fua bd ~lba:0 (page ~seed:9) ()))
         : Fiber.t);
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:1_000 (fun () -> !held <> [])) then
        Alcotest.fail "the FUA write never reached the first driver";
      Driver_host.kill first;
      let forge = ref None in
      let second =
        ok_or_fail "second generation"
          (Driver_host.launch k w.sp cls ~bdf:w.bdf (forging_driver forge))
      in
      (Option.get !forge) ~tag:0;
      Uchan.flush (Driver_host.chan second);
      ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
      Alcotest.(check bool) "the FUA write is unacknowledged" true (!acked = None);
      Alcotest.(check int) "and still in flight" 1 (Proxy_blk.inflight (Driver_host.proxy second));
      Driver_host.kill second)

(* NVMe whose interrupt handler, called for queue [q] while [hold] is
   set, sets [held] and waits for [hold] to clear before it polls, so the
   submissions the kernel sends meanwhile queue behind the interrupt.
   [on_submit] runs as each submission to queue [q] reaches the driver,
   before the device sees it. *)
let holding_irq_driver ~q ~hold ~held ~on_submit =
  { Nvme.driver with
    Driver_api.bd_probe =
      (fun env dev cb ->
         let request_irqs ~n handler =
           dev.Driver_api.pd_request_irqs ~n (fun ~queue ->
               if queue = q then
                 while !hold do
                   held := true;
                   env.Driver_api.env_usleep 1
                 done;
               handler ~queue)
         in
         Result.map
           (fun bi ->
              { bi with
                Driver_api.bi_submit =
                  (fun ~queue ~tag ~op ~lba ~count ~addr ->
                     if queue = q then on_submit ();
                     bi.Driver_api.bi_submit ~queue ~tag ~op ~lba ~count ~addr) })
           (Nvme.driver.Driver_api.bd_probe env
              { dev with Driver_api.pd_request_irqs = request_irqs } cb)) }

(* FUA writes [first .. first + n - 1], one fiber each, of pages that all
   ride ring [q] of four; [acked.(i)] is write [i]'s result once it
   returns. *)
let fua_writes_on_ring k bd ~q ~first ~n acked =
  for i = first to first + n - 1 do
    let lba = (q + (4 * i)) * Blkdev.page_sectors in
    ignore
      (Fiber.spawn k.Kernel.eng (fun () ->
           acked.(i) <- Some (Blkdev.write_fua bd ~lba (page ~seed:i) ()))
       : Fiber.t)
  done

let count_acked acked = Array.fold_left (fun c r -> if r = Some (Ok ()) then c + 1 else c) 0 acked

(* A hosted NVMe on [queues] rings (default four).  Write 0's completion
   interrupts ring 1 (ring 0 when there is one), whose handler the test
   holds while writes 1 .. n-1 queue on that ring behind the interrupt.
   [on_submit g acked] runs as each of them reaches the driver.  Returns
   the generation, the grant's interrupt count while held, the results
   and the release. *)
let held_interrupt ?(queues = 4) k w ~n ~on_submit =
  let q = min 1 (queues - 1) in
  let hold = ref true and held = ref false and armed = ref false in
  let grant = ref None and acked = Array.make n None in
  let s =
    ok_or_fail "start_blk"
      (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf ~queues
         (holding_irq_driver ~q ~hold ~held ~on_submit:(fun () ->
              if !armed then on_submit (Option.get !grant) acked)))
  in
  let g = Driver_host.grant s and bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
  grant := Some g;
  fua_writes_on_ring k bd ~q ~first:0 ~n:1 acked;
  if not (Fiber.poll k.Kernel.eng ~every_ns:1_000 ~budget:1_000 (fun () -> !held)) then
    Alcotest.fail "write 0 never interrupted";
  let irqs = Safe_pci.grant_irqs_delivered g in
  armed := true;
  fua_writes_on_ring k bd ~q ~first:1 ~n:(n - 1) acked;
  ignore (Fiber.sleep k.Kernel.eng 50_000 : Fiber.wake);
  Alcotest.(check int) "the writes wait behind the interrupt" 0 (count_acked acked);
  (s, irqs, acked, fun () -> hold := false)

(* While the driver works through the writes queued behind an interrupt
   its ack stays owed: the vector stays masked at every one of their
   submissions, and the completions that land meanwhile are reaped and
   acknowledged with no interrupt.  Once the ring is empty the ack
   unmasks the vector. *)
let test_masked_while_the_ring_drains () =
  run_in_kernel setup_nvme (fun k w ->
      let n = 9 and seen = ref [] in
      let s, irqs, acked, release =
        held_interrupt k w ~n ~on_submit:(fun g acked ->
            seen :=
              (Safe_pci.vector_masked g ~queue:1, Safe_pci.grant_irqs_delivered g,
               count_acked acked)
              :: !seen)
      in
      let g = Driver_host.grant s in
      release ();
      if not (Fiber.poll k.Kernel.eng ~every_ns:1_000 ~budget:1_000 (fun () -> count_acked acked = n))
      then Alcotest.fail "the writes were not all acknowledged";
      Alcotest.(check int) "every queued write reached the driver" (n - 1) (List.length !seen);
      List.iteri
        (fun i (masked, delivered, _) ->
           Alcotest.(check bool) (Printf.sprintf "masked at submission %d" (i + 1)) true masked;
           Alcotest.(check int) (Printf.sprintf "no interrupt by submission %d" (i + 1)) irqs
             delivered)
        (List.rev !seen);
      let _, _, acked_by_last = List.hd !seen in
      Alcotest.(check int) "acknowledged by the last submission, with no interrupt" (n - 2)
        acked_by_last;
      ignore (Fiber.sleep k.Kernel.eng 10_000 : Fiber.wake);
      Alcotest.(check bool) "unmasked once the ring is empty" false
        (Safe_pci.vector_masked g ~queue:1);
      Driver_host.kill s)

(* One write queued behind the interrupt: the driver submits it with the
   ack owed and, its ring now empty, polls once more and acks before the
   completion lands.  The completion latches behind the mask, the ack's
   unmask replays it, and the write is acknowledged. *)
let test_ack_replays_a_late_completion () =
  run_in_kernel setup_nvme (fun k w ->
      let s, irqs, acked, release = held_interrupt k w ~n:2 ~on_submit:(fun _ _ -> ()) in
      let g = Driver_host.grant s in
      let cfg = Device.cfg (Nvme_dev.device w.nvme) in
      let latched = ref false in
      release ();
      if
        not
          (Fiber.poll k.Kernel.eng ~every_ns:20 ~budget:100_000 (fun () ->
               if
                 acked.(1) = None && Safe_pci.vector_masked g ~queue:1
                 && Pci_cfg.msix_pending cfg ~vector:1
               then latched := true;
               count_acked acked = 2))
      then Alcotest.fail "the writes were not both acknowledged";
      Alcotest.(check bool) "the completion latched behind the mask" true !latched;
      Alcotest.(check int) "the unmask replayed it" (irqs + 1) (Safe_pci.grant_irqs_delivered g);
      ignore (Fiber.sleep k.Kernel.eng 10_000 : Fiber.wake);
      Alcotest.(check bool) "the replay's ack unmasks" false (Safe_pci.vector_masked g ~queue:1);
      Driver_host.kill s)

(* With one queue the NVMe runs on legacy MSI, which drops a raise while
   the vector is masked, so the driver acks at once: the write queued
   behind the interrupt completes after the unmask and draws its own. *)
let test_single_vector_acks_at_once () =
  run_in_kernel setup_nvme (fun k w ->
      let s, irqs, acked, release = held_interrupt ~queues:1 k w ~n:2 ~on_submit:(fun _ _ -> ()) in
      let g = Driver_host.grant s in
      Alcotest.(check bool) "legacy MSI" false
        (Pci_cfg.msix_enabled (Device.cfg (Nvme_dev.device w.nvme)));
      release ();
      if not (Fiber.poll k.Kernel.eng ~every_ns:1_000 ~budget:1_000 (fun () -> count_acked acked = 2))
      then Alcotest.fail "the write behind the interrupt was not acknowledged";
      Alcotest.(check int) "by its own interrupt" (irqs + 1) (Safe_pci.grant_irqs_delivered g);
      Driver_host.kill s)

(* One queue means legacy MSI, which latches nothing: a completion
   posted between the handler's poll and its ack's unmask raises no
   interrupt.  The driver looks at its completion queue again after the
   ack, so every round of concurrent FUA writes is acknowledged at once
   rather than when some later IO interrupts. *)
let test_single_vector_loses_no_completion () =
  run_in_kernel setup_nvme (fun k w ->
      let s =
        ok_or_fail "start_blk"
          (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf ~queues:1 Nvme.driver)
      in
      let bd = Option.get (Proxy_blk.blkdev (Driver_host.proxy s)) in
      for round = 0 to 49 do
        let n = 1 + (round mod 8) in
        let acked = Array.make n None in
        for i = 0 to n - 1 do
          let lba = ((8 * round) + i) * Blkdev.page_sectors in
          ignore
            (Fiber.spawn k.Kernel.eng (fun () ->
                 acked.(i) <- Some (Blkdev.write_fua bd ~lba (page ~seed:i) ()))
             : Fiber.t)
        done;
        if
          not
            (Fiber.poll k.Kernel.eng ~every_ns:1_000 ~budget:1_000 (fun () ->
                 count_acked acked = n))
        then
          Alcotest.failf "round %d: %d of %d writes acknowledged within 1 ms" round
            (count_acked acked) n
      done;
      Driver_host.kill s)

(* NVMe, but while [hold] is set its completions wait in [held] until
   the test delivers them. *)
let gated_driver ~hold held =
  { Nvme.driver with
    Driver_api.bd_probe =
      (fun env dev cb ->
         Nvme.driver.Driver_api.bd_probe env dev
           { Driver_api.bc_complete =
               (fun ~queue ~tag ~status ->
                  if !hold then
                    held := (fun () -> cb.Driver_api.bc_complete ~queue ~tag ~status) :: !held
                  else cb.Driver_api.bc_complete ~queue ~tag ~status) }) }

(* A replay larger than the proxy's pool parks requests, and completions
   arriving on several rings at once all drain that one queue.  Only one
   fiber may send its head at a time: a second drainer would send the
   same request again, and the first would later pop a request it never
   sent, which then sits in flight until its timeout forces another
   restart.  The fsync's 100 writes go to every other page, so none
   merge; the driver dies with the flush on the wire, and the restarted
   driver holds the replay's first 64 completions, one per pool buffer,
   until the other 36 writes and the flush have parked. *)
let test_replay_drains_once () =
  run_in_kernel setup_nvme (fun k w ->
      let hold = ref false and held = ref [] in
      let factory ~attempt = if attempt = 0 then Nvme.driver else gated_driver ~hold held in
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) and eng = k.Kernel.eng in
      let pages = List.init 100 (fun i -> 2 * i * Blkdev.page_sectors) in
      List.iter (fun lba -> ok_or_fail "write" (Blkdev.write bd ~lba (page ~seed:lba) ())) pages;
      let synced = ref None in
      ignore (Fiber.spawn eng (fun () -> synced := Some (Blkdev.fsync bd ())) : Fiber.t);
      let proxy = Driver_host.proxy (Option.get (Supervisor.current_blk sv)) in
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:100_000 (fun () -> Proxy_blk.inflight_flush proxy))
      then Alcotest.fail "the fsync's flush never went on the wire";
      Alcotest.(check int) "every write completed before the flush" 100 (Proxy_blk.retained proxy);
      hold := true;
      (match Supervisor.proc sv with
       | Some p -> Process.kill p
       | None -> Alcotest.fail "no driver process");
      if not (Fiber.poll eng ~every_ns:1_000 ~budget:100_000 (fun () -> List.length !held = 64))
      then Alcotest.fail "the replay never filled the pool";
      ignore (Fiber.sleep eng 100_000 : Fiber.wake);
      Alcotest.(check int) "no completion past the pool" 64 (List.length !held);
      hold := false;
      List.iter (fun complete -> complete ()) (List.rev !held);
      Uchan.flush (Driver_host.chan (Option.get (Supervisor.current_blk sv)));
      if not (Fiber.poll eng ~every_ns:1_000_000 ~budget:1_000 (fun () -> !synced <> None)) then
        Alcotest.fail "the fsync never returned";
      ok_or_fail "fsync across the replay" (Option.get !synced);
      Alcotest.(check int) "one restart" 1 (Supervisor.stats sv).Supervisor.st_restarts;
      List.iter
        (fun lba -> check_media_page w.nvme ~lba (page ~seed:lba) (Printf.sprintf "lba %d" lba))
        pages;
      let proxy = Driver_host.proxy (Option.get (Supervisor.current_blk sv)) in
      Alcotest.(check int) "nothing left in flight" 0 (Proxy_blk.inflight proxy);
      Supervisor.stop sv)

(* Page 0's writeback is on the wire (its completion held by the first
   driver generation) when a newer version is written and fsynced.  The
   second fsync waits for the first write instead of sending another,
   and the driver dies with the write still on the wire.  Returns the
   supervisor, each fsync's result and duration once it returns, and the
   newer version's bytes. *)
let two_fsyncs_across_a_death k w ~policy ~timeout_ns =
  let hold = ref true and held = ref [] in
  let factory ~attempt = if attempt = 0 then gated_driver ~hold held else Nvme.driver in
  let sv =
    ok_or_fail "start_blk supervised" (Supervisor.start_blk k w.sp ~policy ~bdf:w.bdf factory)
  in
  let bd = Option.get (Supervisor.blkdev sv) and eng = k.Kernel.eng in
  let fsync_in_fiber () =
    let result = ref None and t0 = Engine.now eng in
    ignore
      (Fiber.spawn eng (fun () ->
           let r = Blkdev.fsync bd ~timeout_ns () in
           result := Some (r, Engine.now eng - t0))
       : Fiber.t);
    result
  in
  ok_or_fail "write 1" (Blkdev.write bd ~lba:0 (page ~seed:1) ());
  let first = fsync_in_fiber () in
  if not (Fiber.poll eng ~every_ns:1_000 ~budget:10_000 (fun () -> !held <> [])) then
    Alcotest.fail "the first writeback never reached the driver";
  let newer = page ~seed:2 in
  ok_or_fail "write 2" (Blkdev.write bd ~lba:0 newer ());
  let second = fsync_in_fiber () in
  ignore (Fiber.sleep eng 1_000_000 : Fiber.wake);
  Alcotest.(check int) "one write of page 0 on the wire" 1 (List.length !held);
  Alcotest.(check bool) "the second fsync waits" true (!second = None);
  (match Supervisor.proc sv with
   | Some p -> Process.kill p
   | None -> Alcotest.fail "no driver process");
  (sv, first, second, newer)

(* The in-flight mark outlives the driver: the replay completes the
   first write, and only then does the second fsync put the newer
   version on the wire and on media. *)
let test_writeback_mark_across_replay () =
  run_in_kernel setup_nvme (fun k w ->
      let sv, first, second, newer =
        two_fsyncs_across_a_death k w ~policy:blk_policy ~timeout_ns:1_000_000_000
      in
      if not (Fiber.poll k.Kernel.eng ~every_ns:1_000_000 ~budget:1_000 (fun () -> !second <> None))
      then Alcotest.fail "the second fsync never returned";
      ok_or_fail "first fsync" (fst (Option.get !first));
      ok_or_fail "second fsync" (fst (Option.get !second));
      Alcotest.(check int) "one restart" 1 (Supervisor.stats sv).Supervisor.st_restarts;
      check_media_page w.nvme ~lba:0 newer "newer version after the replay";
      Supervisor.stop sv)

(* With no restart left the device is quarantined and the first write
   never completes, so page 0 stays marked: the waiting fsync gives up
   once its timeout passes. *)
let test_writeback_mark_under_quarantine () =
  run_in_kernel setup_nvme (fun k w ->
      let timeout_ns = 50_000_000 in
      let sv, first, second, _ =
        two_fsyncs_across_a_death k w ~policy:{ blk_policy with Supervisor.max_restarts = 0 }
          ~timeout_ns
      in
      if not (Fiber.poll k.Kernel.eng ~every_ns:1_000_000 ~budget:1_000 (fun () -> !second <> None))
      then Alcotest.fail "the second fsync hung";
      let result, waited = Option.get !second in
      Alcotest.(check bool) "quarantined" true (Supervisor.state sv = Supervisor.Quarantined);
      Alcotest.(check bool) "the second fsync failed" true (Result.is_error result);
      Alcotest.(check int) "after exactly its timeout" timeout_ns waited;
      Alcotest.(check bool) "the first fsync failed" true
        (match !first with Some (r, _) -> Result.is_error r | None -> false);
      Supervisor.stop sv)

(* A dropped flush must never fake durability: the fsync blocks, the
   request timeout escalates, and the post-recovery replay makes the
   data durable before fsync returns. *)
let test_dropped_flush () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let data = page ~seed:5 in
      ok_or_fail "write" (Blkdev.write bd ~lba:24 data ());
      Nvme_dev.inject_drop_flush w.nvme;
      ok_or_fail "fsync rides out the recovery" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:24 data "after dropped flush";
      Alcotest.(check bool) "a recovery happened" true
        ((Supervisor.stats sv).Supervisor.st_restarts >= 1);
      Supervisor.stop sv)

(* A corrupted completion id cannot fake durability either: the true
   victim stays in flight, blocks retention drops (flush-covering rule)
   and escalates by timeout; replay restores everything. *)
let test_corrupt_completion () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      Nvme_dev.inject_corrupt_completion w.nvme ~mask:0x15;
      let data = page ~seed:6 in
      ok_or_fail "write" (Blkdev.write bd ~lba:32 data ());
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:32 data "after corrupt completion";
      Supervisor.stop sv)

let suite =
  [ Alcotest.test_case "sud-blk: hosted nvme serves write/fsync/read" `Quick test_smoke;
    Alcotest.test_case "sud-blk: FUA is write-through" `Quick test_fua;
    Alcotest.test_case "sud-blk: concurrent IO leaves no events behind" `Quick
      test_concurrent_io_leaves_no_events;
    Alcotest.test_case "sud-blk: a fill keeps the page written while it was in flight" `Quick
      test_fill_keeps_page_written_meanwhile;
    Alcotest.test_case "sud-blk: page cache keeps its bound" `Quick test_cache_is_bounded;
    Alcotest.test_case "sud-blk: zero fills share one block until written" `Quick
      test_zero_fills_share_one_block;
    Alcotest.test_case "sud-blk: dirty pages outgrow the bound, fsync keeps them all" `Quick
      test_dirty_pages_outgrow_the_bound;
    Alcotest.test_case "sud-blk: a read without its bytes fails" `Quick
      test_read_without_its_bytes_fails;
    Alcotest.test_case "sud-blk: a kill during a read's copy fails the read" `Quick
      test_kill_during_read_copy;
    Alcotest.test_case "sud-blk: concurrent fsyncs clean a page once" `Quick
      test_concurrent_fsyncs_count_a_page_once;
    Alcotest.test_case "sud-blk: CLOCK spares a page hit since the hand passed" `Quick
      test_clock_spares_a_hit_page;
    Alcotest.test_case "sud-blk: crash replay keeps acked writes" `Quick test_crash_replay;
    Alcotest.test_case "sud-blk: cold reads keep the pool IOTLB-resident" `Quick
      test_cold_reads_stay_iotlb_resident;
    Alcotest.test_case "sud-blk: a clean restart sends the staged requests once" `Quick
      test_clean_restart;
    Alcotest.test_case "sud-blk: stop during a restart's resume is final (cold)" `Quick
      (test_stop_during_resume ~standby:false);
    Alcotest.test_case "sud-blk: stop during a restart's resume is final (warm)" `Quick
      (test_stop_during_resume ~standby:true);
    Alcotest.test_case "sud-blk: stop during a health check is final" `Quick
      test_stop_during_health_check;
    Alcotest.test_case "sud-blk: a fresh generation cannot complete the dead one's request"
      `Quick test_fresh_generation_cannot_complete_the_dead_ones;
    Alcotest.test_case "sud-blk: the vector stays masked while its ring drains" `Quick
      test_masked_while_the_ring_drains;
    Alcotest.test_case "sud-blk: the ack replays a completion that lands after the last poll"
      `Quick test_ack_replays_a_late_completion;
    Alcotest.test_case "sud-blk: a single-vector NVMe acks at once" `Quick
      test_single_vector_acks_at_once;
    Alcotest.test_case "sud-blk: a single-vector NVMe loses no completion to its ack" `Quick
      test_single_vector_loses_no_completion;
    Alcotest.test_case "sud-blk: one fiber drains a parked replay" `Quick
      test_replay_drains_once;
    Alcotest.test_case "sud-blk: a page's write in flight outlives a driver death" `Quick
      test_writeback_mark_across_replay;
    Alcotest.test_case "sud-blk: a quarantined write in flight times out a waiting fsync" `Quick
      test_writeback_mark_under_quarantine;
    Alcotest.test_case "sud-blk: dropped flush cannot fake durability" `Quick
      test_dropped_flush;
    Alcotest.test_case "sud-blk: corrupt completion cannot fake durability" `Quick
      test_corrupt_completion ]
