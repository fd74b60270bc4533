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
      let rec wait budget =
        if budget = 0 then Alcotest.fail "no recovery"
        else if
          (Supervisor.stats sv).Supervisor.st_restarts >= 1
          && Supervisor.state sv = Supervisor.Running
        then ()
        else begin
          ignore (Fiber.sleep k.Kernel.eng 1_000_000 : Fiber.wake);
          wait (budget - 1)
        end
      in
      wait 1_000;
      (* The acked write must survive: fsync through the fresh generation,
         then the media is the ground truth. *)
      ok_or_fail "fsync after recovery" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:0 data2 "acked write after crash";
      let rd = ok_or_fail "read" (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "cache agrees" (Bytes.to_string data2) (Bytes.to_string rd);
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
    Alcotest.test_case "sud-blk: crash replay keeps acked writes" `Quick test_crash_replay;
    Alcotest.test_case "sud-blk: dropped flush cannot fake durability" `Quick
      test_dropped_flush;
    Alcotest.test_case "sud-blk: corrupt completion cannot fake durability" `Quick
      test_corrupt_completion ]
