(* Unit and property tests for the hardware substrate: physical memory,
   PCI config space, IOMMU, IO ports, topology routing, devices. *)

let mode_vtd = Iommu.Intel_vtd { interrupt_remapping = false }

(* IOTLB traffic read off the IOMMU's registry handles. *)
type iotlb = { hits : int; misses : int; evictions : int }

let iotlb_stats io =
  let m = Iommu.metrics io in
  { hits = Sud_obs.Metrics.gauge_value m.Iommu.im_hits;
    misses = Sud_obs.Metrics.gauge_value m.Iommu.im_misses;
    evictions = Sud_obs.Metrics.get m.Iommu.im_evictions }

let iotlb_flushes io = Sud_obs.Metrics.get (Iommu.metrics io).Iommu.im_flushes
let mode_vtd_ir = Iommu.Intel_vtd { interrupt_remapping = true }

(* ---- phys_mem ---- *)

let test_phys_rw () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  Phys_mem.write m ~addr:0x1234 (Bytes.of_string "hello");
  Alcotest.(check string) "roundtrip" "hello"
    (Bytes.to_string (Phys_mem.read m ~addr:0x1234 ~len:5));
  Phys_mem.write32 m 0x2000 0xDEADBEEF;
  Alcotest.(check int) "word" 0xDEADBEEF (Phys_mem.read32 m 0x2000)

let test_phys_cross_page () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  let data = Bytes.init 10000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write m ~addr:4000 data;
  Alcotest.(check bytes) "spans pages" data (Phys_mem.read m ~addr:4000 ~len:10000)

let test_phys_bounds () =
  let m = Phys_mem.create ~size:4096 in
  Alcotest.check_raises "out of range" (Phys_mem.Bus_error 4096) (fun () ->
      ignore (Phys_mem.read8 m 4096 : int))

let test_phys_alloc () =
  let m = Phys_mem.create ~size:(1 lsl 20) in
  let a = Phys_mem.alloc_pages m ~pages:2 in
  let b = Phys_mem.alloc_pages m ~pages:1 in
  Alcotest.(check bool) "disjoint" true (b >= a + 8192 || b + 4096 <= a);
  Alcotest.(check bool) "page aligned" true (Bus.is_page_aligned a && Bus.is_page_aligned b);
  Alcotest.(check bool) "low memory reserved" true (a >= 65536);
  Phys_mem.write8 m a 0xAB;
  Phys_mem.free_pages m ~addr:a ~pages:2;
  Alcotest.(check int) "freed pages are zeroed" 0 (Phys_mem.read8 m a);
  let c = Phys_mem.alloc_pages m ~pages:2 in
  Alcotest.(check int) "free list reuses the run" a c

let test_phys_exhaustion () =
  let m = Phys_mem.create ~size:(128 * 4096) in
  Alcotest.check_raises "oom" (Failure "Phys_mem: out of physical memory") (fun () ->
      for _ = 1 to 1000 do ignore (Phys_mem.alloc_pages m ~pages:8 : int) done)

(* The sparseness of the chunk grain, pinned: reading memory nobody
   wrote takes no storage; 64-byte frames at the start of both 2 KiB
   buffers of 512 pages (an e1000 RX ring's pages) take two chunks a
   page; a 4 KiB write takes one page; freeing the run drops it all. *)
let test_phys_sparse () =
  let m = Phys_mem.create ~size:(4 * 1024 * 1024) in
  let pages = 512 in
  let base = Phys_mem.alloc_pages m ~pages in
  ignore (Phys_mem.read m ~addr:base ~len:(pages * Bus.page_size) : bytes);
  ignore (Phys_mem.read32 m (base + 2048) : int);
  Alcotest.(check int) "reads materialize nothing" 0 (Phys_mem.resident_bytes m);
  let frame = Bytes.make 64 'f' in
  for p = 0 to pages - 1 do
    Phys_mem.write m ~addr:(base + (p * Bus.page_size)) frame;
    Phys_mem.write m ~addr:(base + (p * Bus.page_size) + 2048) frame
  done;
  Alcotest.(check bool) "at most two chunks a page" true
    (Phys_mem.resident_bytes m <= pages * 2 * 256);
  Phys_mem.free_pages m ~addr:base ~pages;
  Alcotest.(check int) "free_pages drops the run" 0 (Phys_mem.resident_bytes m);
  Phys_mem.write m ~addr:base (Bytes.make Bus.page_size 'p');
  Alcotest.(check int) "a page written whole is one page" Bus.page_size
    (Phys_mem.resident_bytes m)

(* A flat reference model of Phys_mem: every byte in one [bytes], the
   allocator's policy (the most recently freed run of the same length,
   else a bump pointer from page 16), and its bus errors: a block access
   checks its whole range before it moves a byte, and a scalar access
   that straddles a page splits into halves, lower half first, so it can
   write its lower half before it faults. *)
module Flat = struct
  type t = {
    mem : bytes;
    mutable bump : int;
    mutable free : (int * int) list;  (* (pages, start page), newest first *)
    mutable out : int;
  }

  let create size = { mem = Bytes.make size '\000'; bump = 16; free = []; out = 0 }

  let check m addr len =
    if addr < 0 || len < 0 || addr + len > Bytes.length m.mem then
      raise (Phys_mem.Bus_error addr)

  let straddles addr n = n > 1 && addr land Bus.page_mask > Bus.page_size - n

  let rec read_le m addr n =
    if straddles addr n then
      let h = n / 2 in
      read_le m addr h lor (read_le m (addr + h) h lsl (8 * h))
    else begin
      check m addr n;
      let v = ref 0 in
      for i = n - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get m.mem (addr + i))
      done;
      !v
    end

  let rec write_le m addr n v =
    if straddles addr n then begin
      let h = n / 2 in
      write_le m addr h v;
      write_le m (addr + h) h (Int64.shift_right_logical v (8 * h))
    end
    else begin
      check m addr n;
      for i = 0 to n - 1 do
        Bytes.set m.mem (addr + i)
          (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
      done
    end

  let blit_out m ~addr ~dst ~dst_off ~len =
    check m addr len;
    Bytes.blit m.mem addr dst dst_off len

  let blit_in m ~addr ~src ~src_off ~len =
    check m addr len;
    Bytes.blit src src_off m.mem addr len

  let alloc_pages m ~pages =
    if pages <= 0 then invalid_arg "Phys_mem.alloc_pages";
    let start =
      match List.assoc_opt pages m.free with
      | Some p ->
        let rec drop = function
          | (n, _) :: rest when n = pages -> rest
          | r :: rest -> r :: drop rest
          | [] -> []
        in
        m.free <- drop m.free;
        p
      | None ->
        let p = m.bump in
        if (p + pages) * Bus.page_size > Bytes.length m.mem then
          failwith "Phys_mem: out of physical memory";
        m.bump <- p + pages;
        p
    in
    m.out <- m.out + pages;
    start * Bus.page_size

  let free_pages m ~addr ~pages =
    if not (Bus.is_page_aligned addr) then invalid_arg "Phys_mem.free_pages: unaligned";
    check m addr (pages * Bus.page_size);
    Bytes.fill m.mem addr (pages * Bus.page_size) '\000';
    m.free <- (pages, addr / Bus.page_size) :: m.free;
    m.out <- m.out - pages
end

type mem_op =
  | Write of int * int * int        (* addr, len, pattern seed *)
  | Blit_in of int * int * int * int  (* addr, src_off, len, seed *)
  | Blit_out of int * int * int     (* addr, dst_off, len *)
  | Read of int * int
  | Read8 of int
  | Read32 of int
  | Write8 of int * int
  | Write32 of int * int
  | Write64 of int * int64
  | Alloc of int
  | Free of int * int

let show_mem_op = function
  | Write (a, n, s) -> Printf.sprintf "write %d len %d seed %d" a n s
  | Blit_in (a, o, n, s) -> Printf.sprintf "blit_in %d off %d len %d seed %d" a o n s
  | Blit_out (a, o, n) -> Printf.sprintf "blit_out %d off %d len %d" a o n
  | Read (a, n) -> Printf.sprintf "read %d len %d" a n
  | Read8 a -> Printf.sprintf "read8 %d" a
  | Read32 a -> Printf.sprintf "read32 %d" a
  | Write8 (a, v) -> Printf.sprintf "write8 %d %d" a v
  | Write32 (a, v) -> Printf.sprintf "write32 %d %d" a v
  | Write64 (a, v) -> Printf.sprintf "write64 %d %Ld" a v
  | Alloc n -> Printf.sprintf "alloc_pages %d" n
  | Free (a, n) -> Printf.sprintf "free_pages %d pages %d" a n

(* Nonzero-heavy bytes that differ by seed and position, so a lost or
   misplaced byte shows. *)
let pattern ~seed len = Bytes.init len (fun i -> Char.chr (((seed * 37) + (i * 11) + 1) land 0xff))

let flat_pages = 24
let flat_size = flat_pages * Bus.page_size

(* Addresses where the representation changes: the chunk boundaries of
   the first allocatable pages, every page boundary (0 and the end of
   memory included) and the last 300 bytes of memory. *)
let gen_mem_addr =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map3
            (fun p c d -> (p * Bus.page_size) + (c * 256) + d)
            (int_range 16 19) (int_range 0 16) (int_range (-4) 4) );
        (2, map2 (fun p d -> (p * Bus.page_size) + d) (int_range 0 flat_pages) (int_range (-8) 8));
        (2, map (fun d -> flat_size + d) (int_range (-300) 8)) ])

(* Short writes stay in chunks, those of 1 KiB or more take a whole
   page, and the longest cross pages. *)
let gen_mem_len =
  QCheck.Gen.(
    frequency
      [ (5, int_range 0 300); (3, int_range 900 1200); (2, int_range 1200 5000);
        (1, int_range (-2) (-1)) ])

let gen_mem_op =
  QCheck.Gen.(
    let a = gen_mem_addr and n = gen_mem_len and seed = int_bound 1000 in
    frequency
      [ (4, map3 (fun a n s -> Write (a, max 0 n, s)) a n seed);
        (3, map3 (fun a (o, n) s -> Blit_in (a, o, n, s)) a (pair (int_bound 16) n) seed);
        (3, map3 (fun a o n -> Blit_out (a, o, n)) a (int_bound 16) n);
        (2, map2 (fun a n -> Read (a, max 0 n)) a n);
        (2, map (fun a -> Read8 a) a);
        (2, map (fun a -> Read32 a) a);
        (2, map2 (fun a v -> Write8 (a, v)) a (int_bound 255));
        (2, map2 (fun a v -> Write32 (a, v)) a (int_bound 0x3FFFFFFF));
        (2, map2 (fun a v -> Write64 (a, v)) a (map Int64.of_int int));
        (1, map (fun n -> Alloc n) (int_range 0 3));
        ( 1,
          map2
            (fun p n -> Free (p, n))
            (frequency [ (4, map (fun p -> p * Bus.page_size) (int_range 16 24)); (1, int_range 65530 65540) ])
            (int_range 1 3) ) ])

(* One operation's outcome, as a string both sides can be compared on. *)
let outcome f =
  match f () with
  | s -> s
  | exception Phys_mem.Bus_error a -> Printf.sprintf "Bus_error %d" a
  | exception Failure e -> "Failure " ^ e
  | exception Invalid_argument e -> "Invalid_argument " ^ e

let run_real m = function
  | Write (addr, len, seed) -> Phys_mem.write m ~addr (pattern ~seed len); "ok"
  | Blit_in (addr, src_off, len, seed) ->
    Phys_mem.blit_in m ~addr ~src:(pattern ~seed (src_off + max 0 len)) ~src_off ~len; "ok"
  | Blit_out (addr, dst_off, len) ->
    let dst = Bytes.make (dst_off + max 0 len) '?' in
    Phys_mem.blit_out m ~addr ~dst ~dst_off ~len;
    Bytes.to_string dst
  | Read (addr, len) -> Bytes.to_string (Phys_mem.read m ~addr ~len)
  | Read8 a -> string_of_int (Phys_mem.read8 m a)
  | Read32 a -> string_of_int (Phys_mem.read32 m a)
  | Write8 (a, v) -> Phys_mem.write8 m a v; "ok"
  | Write32 (a, v) -> Phys_mem.write32 m a v; "ok"
  | Write64 (a, v) -> Phys_mem.write64 m a v; "ok"
  | Alloc pages -> string_of_int (Phys_mem.alloc_pages m ~pages)
  | Free (addr, pages) -> Phys_mem.free_pages m ~addr ~pages; "ok"

let run_flat f = function
  | Write (addr, len, seed) -> Flat.blit_in f ~addr ~src:(pattern ~seed len) ~src_off:0 ~len; "ok"
  | Blit_in (addr, src_off, len, seed) ->
    Flat.blit_in f ~addr ~src:(pattern ~seed (src_off + max 0 len)) ~src_off ~len; "ok"
  | Blit_out (addr, dst_off, len) ->
    let dst = Bytes.make (dst_off + max 0 len) '?' in
    Flat.blit_out f ~addr ~dst ~dst_off ~len;
    Bytes.to_string dst
  | Read (addr, len) ->
    let dst = Bytes.create len in
    Flat.blit_out f ~addr ~dst ~dst_off:0 ~len;
    Bytes.to_string dst
  | Read8 a -> string_of_int (Flat.read_le f a 1)
  | Read32 a -> string_of_int (Flat.read_le f a 4)
  | Write8 (a, v) -> Flat.write_le f a 1 (Int64.of_int v); "ok"
  | Write32 (a, v) -> Flat.write_le f a 4 (Int64.of_int v); "ok"
  | Write64 (a, v) -> Flat.write_le f a 8 v; "ok"
  | Alloc pages -> string_of_int (Flat.alloc_pages f ~pages)
  | Free (addr, pages) -> Flat.free_pages f ~addr ~pages; "ok"

(* Where two outcomes part, for the failure report. *)
let first_difference got want =
  let n = min (String.length got) (String.length want) in
  let rec from i = if i < n && got.[i] = want.[i] then from (i + 1) else i in
  let i = from 0 in
  let window s = String.sub s i (min 16 (String.length s - i)) in
  Printf.sprintf "from byte %d: phys_mem %S, model %S" i (window got) (window want)

let phys_mem_matches_flat_model =
  QCheck.Test.make ~name:"phys_mem matches a flat reference model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
    (fun ops ->
       let m = Phys_mem.create ~size:flat_size and f = Flat.create flat_size in
       List.iteri
         (fun i op ->
            let got = outcome (fun () -> run_real m op) and want = outcome (fun () -> run_flat f op) in
            if got <> want then
              QCheck.Test.fail_reportf "op %d (%s) differs %s" i (show_mem_op op)
                (first_difference got want))
         ops;
       let got = Bytes.to_string (Phys_mem.read m ~addr:0 ~len:flat_size) in
       if got <> Bytes.to_string f.Flat.mem then
         QCheck.Test.fail_reportf "memory differs at the end %s"
           (first_difference got (Bytes.to_string f.Flat.mem));
       Phys_mem.allocated_pages m = f.Flat.out)

(* ---- pci_cfg ---- *)

let mk_cfg () =
  Pci_cfg.create ~vendor:0x8086 ~device:0x10D3
    ~bars:[| Some (Pci_cfg.Mem { size = 0x20000 }); Some (Pci_cfg.Io { size = 0x20 }) |]
    ()

let test_cfg_ids () =
  let c = mk_cfg () in
  Alcotest.(check int) "vendor" 0x8086 (Pci_cfg.read c ~off:Pci_cfg.vendor_id ~size:2);
  Alcotest.(check int) "device" 0x10D3 (Pci_cfg.read c ~off:Pci_cfg.device_id ~size:2);
  Alcotest.(check int) "byte access" 0x86 (Pci_cfg.read c ~off:0 ~size:1)

let test_cfg_bar_sizing () =
  let c = mk_cfg () in
  Pci_cfg.set_bar_base c 0 0xE0000000;
  Pci_cfg.write c ~off:Pci_cfg.bar0 ~size:4 0xFFFFFFFF;
  let sized = Pci_cfg.read c ~off:Pci_cfg.bar0 ~size:4 in
  Alcotest.(check int) "size mask" (lnot 0x1FFFF land 0xFFFFFFFF) sized;
  Pci_cfg.write c ~off:Pci_cfg.bar0 ~size:4 0xE0000000;
  Alcotest.(check int) "base restored" 0xE0000000 (Pci_cfg.bar_base c 0)

let test_cfg_msi () =
  let c = mk_cfg () in
  Alcotest.(check (option int)) "no cap yet" None (Pci_cfg.find_capability c Pci_cfg.msi_cap_id);
  Pci_cfg.add_msi_capability c;
  Alcotest.(check bool) "cap found" true
    (Pci_cfg.find_capability c Pci_cfg.msi_cap_id <> None);
  Alcotest.(check bool) "disabled initially" false (Pci_cfg.msi_enabled c);
  Pci_cfg.msi_configure c ~address:0xFEE00000 ~data:42;
  Alcotest.(check bool) "enabled" true (Pci_cfg.msi_enabled c);
  Alcotest.(check int) "address" 0xFEE00000 (Pci_cfg.msi_address c);
  Alcotest.(check int) "data" 42 (Pci_cfg.msi_data c);
  Pci_cfg.msi_set_mask c true;
  Alcotest.(check bool) "masked" true (Pci_cfg.msi_masked c);
  Pci_cfg.msi_set_mask c false;
  Alcotest.(check bool) "unmasked" false (Pci_cfg.msi_masked c)

let test_cfg_command_bits () =
  let c = mk_cfg () in
  Pci_cfg.write c ~off:Pci_cfg.command ~size:2 Pci_cfg.cmd_bus_master;
  Alcotest.(check bool) "bus master" true (Pci_cfg.command_has c Pci_cfg.cmd_bus_master);
  Alcotest.(check bool) "mem not enabled" false (Pci_cfg.command_has c Pci_cfg.cmd_mem_enable)

let test_cfg_rejects_tiny_bar () =
  Alcotest.check_raises "sub-page memory BAR rejected"
    (Invalid_argument "Pci_cfg.create: memory BAR size must be a power of two >= one page")
    (fun () ->
       ignore (Pci_cfg.create ~vendor:1 ~device:1 ~bars:[| Some (Pci_cfg.Mem { size = 512 }) |] ()
               : Pci_cfg.t))

(* ---- iommu ---- *)

let test_iommu_translate () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x42430000 ~phys:0x10000 ~len:8192 ~writable:true;
  (match Iommu.translate io ~source:5 ~addr:0x42430123 ~dir:Bus.Dma_read with
   | `Phys p -> Alcotest.(check int) "offset preserved" 0x10123 p
   | `Msi | `Fault _ -> Alcotest.fail "expected translation");
  (match Iommu.translate io ~source:5 ~addr:0x42432000 ~dir:Bus.Dma_read with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "expected fault beyond mapping");
  Alcotest.(check int) "fault recorded" 1 (List.length (Iommu.faults io))

let test_iommu_passthrough () =
  let io = Iommu.create ~mode:mode_vtd () in
  match Iommu.translate io ~source:9 ~addr:0x1234 ~dir:Bus.Dma_read with
  | `Phys p -> Alcotest.(check int) "identity for unattached devices" 0x1234 p
  | `Msi | `Fault _ -> Alcotest.fail "expected passthrough"

let test_iommu_write_protection () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x1000 ~phys:0x2000 ~len:4096 ~writable:false;
  (match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_read with
   | `Phys _ -> ()
   | `Msi | `Fault _ -> Alcotest.fail "read allowed");
  match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_write with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "write must fault on read-only mapping"

let test_iommu_msi_quirk () =
  (* Intel: implicit identity MSI mapping even for confined devices. *)
  let io = Iommu.create ~mode:mode_vtd () in
  ignore (Iommu.attach io ~source:5 : Iommu.domain);
  (match Iommu.translate io ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
   | `Msi -> ()
   | `Phys _ | `Fault _ -> Alcotest.fail "VT-d implicit MSI mapping missing");
  (* AMD: MSI writes fault unless explicitly mapped. *)
  let amd = Iommu.create ~mode:Iommu.Amd_vi () in
  let d = Iommu.attach amd ~source:5 in
  (match Iommu.translate amd ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "AMD must not have an implicit MSI mapping");
  Iommu.map amd d ~iova:Bus.msi_window_base ~phys:Bus.msi_window_base
    ~len:(Bus.msi_window_limit - Bus.msi_window_base) ~writable:true;
  match Iommu.translate amd ~source:5 ~addr:0xFEE00000 ~dir:Bus.Dma_write with
  | `Msi -> ()
  | `Phys _ | `Fault _ -> Alcotest.fail "mapped MSI window should deliver"

let test_iommu_unmap_flush () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x1000 ~phys:0x2000 ~len:4096 ~writable:true;
  let flushes = iotlb_flushes io in
  Iommu.unmap io d ~iova:0x1000 ~len:4096;
  Alcotest.(check int) "unmap flushes the IOTLB" (flushes + 1) (iotlb_flushes io);
  match Iommu.translate io ~source:5 ~addr:0x1000 ~dir:Bus.Dma_read with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "unmapped address must fault"

let test_iotlb_counters () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:8192 ~writable:true;
  let s0 = iotlb_stats io in
  Alcotest.(check (list int)) "cold cache" [ 0; 0 ] [ s0.hits; s0.misses ];
  (* Scripted pattern: miss, hit, miss (new page), hit, hit. *)
  List.iter
    (fun addr ->
       match Iommu.translate io ~source:5 ~addr ~dir:Bus.Dma_read with
       | `Phys _ -> ()
       | `Msi | `Fault _ -> Alcotest.fail "expected translation")
    [ 0x10123; 0x10456; 0x11000; 0x11abc; 0x10789 ];
  let s1 = iotlb_stats io in
  Alcotest.(check (list int)) "2 walks, 3 hits" [ 3; 2 ] [ s1.hits; s1.misses ];
  (* A fault on an unmapped page pays a walk, not a hit. *)
  (match Iommu.translate io ~source:5 ~addr:0x40000 ~dir:Bus.Dma_read with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "expected fault");
  let s2 = iotlb_stats io in
  Alcotest.(check (list int)) "fault counted as miss" [ 3; 3 ] [ s2.hits; s2.misses ]

let test_iotlb_conflict_eviction () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  (* Pages v and v + iotlb_slots index into the same direct-mapped slot. *)
  let stride = Iommu.iotlb_slots * 4096 in
  Iommu.map io d ~iova:0x100000 ~phys:0x200000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:(0x100000 + stride) ~phys:0x300000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x100000 ~dir:Bus.Dma_read);
  ignore (Iommu.translate io ~source:5 ~addr:(0x100000 + stride) ~dir:Bus.Dma_read);
  let s = iotlb_stats io in
  Alcotest.(check int) "conflict evicts" 1 s.evictions;
  (* The evicted page still translates correctly (via a fresh walk). *)
  match Iommu.translate io ~source:5 ~addr:0x100123 ~dir:Bus.Dma_read with
  | `Phys p -> Alcotest.(check int) "re-walk correct" 0x200123 p
  | `Msi | `Fault _ -> Alcotest.fail "expected translation"

let test_iotlb_no_stale_after_unmap () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  (* Warm the IOTLB, then unmap: a subsequent hit would be a containment
     hole (the device could still reach the old physical page). *)
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_write);
  ignore (Iommu.translate io ~source:5 ~addr:0x10004 ~dir:Bus.Dma_write);
  Iommu.unmap io d ~iova:0x10000 ~len:4096;
  (match Iommu.translate io ~source:5 ~addr:0x10008 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "stale IOTLB entry survived unmap");
  (* Same for the writable bit: remap read-only, the cached writable pte
     must not resurrect write access. *)
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:false;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  (match Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_write with
   | `Fault _ -> ()
   | `Phys _ | `Msi -> Alcotest.fail "stale writable bit survived remap");
  (* And detach: the passthrough identity path must not leak cached pages
     of the dead domain. *)
  Iommu.map io d ~iova:0x30000 ~phys:0x50000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read);
  Iommu.detach io ~source:5;
  (match Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read with
   | `Phys p -> Alcotest.(check int) "identity after detach, not cached phys" 0x30000 p
   | `Msi | `Fault _ -> Alcotest.fail "expected passthrough after detach");
  (* Re-attach: an empty domain faults everywhere, cache included. *)
  let d2 = Iommu.attach io ~source:5 in
  ignore (d2 : Iommu.domain);
  match Iommu.translate io ~source:5 ~addr:0x30000 ~dir:Bus.Dma_read with
  | `Fault _ -> ()
  | `Phys _ | `Msi -> Alcotest.fail "stale entry survived detach/attach"

let test_iotlb_flush_scrubs () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  let s0 = iotlb_stats io in
  Iommu.iotlb_flush io d;
  ignore (Iommu.translate io ~source:5 ~addr:0x10000 ~dir:Bus.Dma_read);
  let s1 = iotlb_stats io in
  Alcotest.(check int) "flush forces a re-walk" (s0.misses + 1) s1.misses;
  Alcotest.(check int) "no phantom hit" s0.hits s1.hits

let test_iommu_mappings_merge () =
  let io = Iommu.create ~mode:mode_vtd () in
  let d = Iommu.attach io ~source:5 in
  Iommu.map io d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:0x11000 ~phys:0x21000 ~len:4096 ~writable:true;
  Iommu.map io d ~iova:0x20000 ~phys:0x30000 ~len:4096 ~writable:true;
  Alcotest.(check (list (pair int int)))
    "contiguous runs merged"
    [ (0x10000, 8192); (0x20000, 4096) ]
    (List.map (fun (iova, _, len, _) -> (iova, len)) (Iommu.mappings d))

let test_iommu_ir () =
  let io = Iommu.create ~mode:mode_vtd_ir () in
  Alcotest.(check bool) "available" true (Iommu.ir_available io);
  Alcotest.(check bool) "unknown blocked" false (Iommu.ir_check io ~source:5 ~vector:33);
  Iommu.ir_allow io ~source:5 ~vector:33;
  Alcotest.(check bool) "allowed" true (Iommu.ir_check io ~source:5 ~vector:33);
  Alcotest.(check bool) "other vector blocked" false (Iommu.ir_check io ~source:5 ~vector:34);
  Iommu.ir_block_source io ~source:5;
  Alcotest.(check bool) "blocked after escalation" false (Iommu.ir_check io ~source:5 ~vector:33);
  (* Without IR hardware, everything passes (the testbed weakness). *)
  let noir = Iommu.create ~mode:mode_vtd () in
  Alcotest.(check bool) "no IR = no filtering" true (Iommu.ir_check noir ~source:5 ~vector:99)

(* ---- ioport / IOPB ---- *)

let test_iopb () =
  let b = Ioport.Iopb.none () in
  Alcotest.(check bool) "denied initially" false (Ioport.Iopb.allows b ~port:0xC000 ~size:1);
  Ioport.Iopb.grant b ~base:0xC000 ~len:0x20;
  Alcotest.(check bool) "granted" true (Ioport.Iopb.allows b ~port:0xC01F ~size:1);
  Alcotest.(check bool) "straddling the end denied" false
    (Ioport.Iopb.allows b ~port:0xC01F ~size:2);
  Alcotest.(check (list (pair int int))) "ranges" [ (0xC000, 0x20) ]
    (Ioport.Iopb.granted_ranges b);
  Ioport.Iopb.revoke b ~base:0xC000 ~len:0x20;
  Alcotest.(check bool) "revoked" false (Ioport.Iopb.allows b ~port:0xC000 ~size:1)

let test_ioport_gp () =
  let io = Ioport.create () in
  let last = ref (-1) in
  Ioport.register io ~base:0x70 ~len:2
    ~read:(fun ~off ~size:_ -> off + 100)
    ~write:(fun ~off:_ ~size:_ v -> last := v);
  let all = Ioport.Iopb.all () and none = Ioport.Iopb.none () in
  Alcotest.(check int) "kernel read" 101 (Ioport.read io ~iopb:all ~port:0x71 ~size:1);
  Ioport.write io ~iopb:all ~port:0x70 ~size:1 42;
  Alcotest.(check int) "kernel write" 42 !last;
  Alcotest.check_raises "user denied" (Ioport.General_protection 0x70) (fun () ->
      ignore (Ioport.read io ~iopb:none ~port:0x70 ~size:1 : int));
  Alcotest.(check int) "floating bus" 0xFF (Ioport.read io ~iopb:all ~port:0x500 ~size:1)

let test_ioport_overlap () =
  let io = Ioport.create () in
  Ioport.register io ~base:0x100 ~len:0x10 ~read:(fun ~off:_ ~size:_ -> 0)
    ~write:(fun ~off:_ ~size:_ _ -> ());
  Alcotest.check_raises "overlap rejected" (Invalid_argument "Ioport.register: overlap")
    (fun () ->
       Ioport.register io ~base:0x108 ~len:0x10 ~read:(fun ~off:_ ~size:_ -> 0)
         ~write:(fun ~off:_ ~size:_ _ -> ()))

(* ---- topology ---- *)

let mk_world () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 * 1024 * 1024) in
  let iommu = Iommu.create ~mode:mode_vtd () in
  let ioports = Ioport.create () in
  let topo = Pci_topology.create ~mem ~iommu ~ioports () in
  (eng, mem, iommu, topo)

let mk_nic eng topo medium mac_byte =
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 mac_byte) ~medium () in
  let bdf = Pci_topology.attach topo ~switch:(Pci_topology.root_switch topo) (E1000_dev.device nic) in
  (nic, bdf)

let test_topology_cfg_and_mmio () =
  let eng, _, _, topo = mk_world () in
  let medium = Net_medium.create eng () in
  let _nic, bdf = mk_nic eng topo medium '\x02' in
  Alcotest.(check int) "cfg vendor" 0x8086 (Pci_topology.cfg_read topo bdf ~off:0 ~size:2);
  let base, size = Option.get (Pci_topology.bar_region topo bdf ~bar:0) in
  Alcotest.(check int) "bar size" 0x20000 size;
  (* Memory decoding off: access faults. *)
  Alcotest.check_raises "mem decode off" (Phys_mem.Bus_error (base + 8)) (fun () ->
      ignore (Pci_topology.mmio_read topo ~addr:(base + 8) ~size:4 : int));
  Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2 Pci_cfg.cmd_mem_enable;
  ignore (Pci_topology.mmio_read topo ~addr:(base + 8) ~size:4 : int)

let test_topology_unknown_addr () =
  let _, _, _, topo = mk_world () in
  Alcotest.check_raises "no device claims" (Phys_mem.Bus_error 0xD0000000) (fun () ->
      ignore (Pci_topology.mmio_read topo ~addr:0xD0000000 ~size:4 : int))

let test_topology_bdf_assignment () =
  let eng, _, _, topo = mk_world () in
  let medium = Net_medium.create eng () in
  let _, bdf_a = mk_nic eng topo medium '\x02' in
  let _, bdf_b = mk_nic eng topo medium '\x03' in
  Alcotest.(check bool) "distinct BDFs" true (bdf_a <> bdf_b);
  let sw = Pci_topology.add_switch topo ~parent:(Pci_topology.root_switch topo) in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x04') ~medium () in
  let bdf_c = Pci_topology.attach topo ~switch:sw (E1000_dev.device nic) in
  Alcotest.(check bool) "switch gets its own bus" true (Bus.bdf_bus bdf_c <> Bus.bdf_bus bdf_a)

(* A bus-mastering NIC behind an (empty) IOMMU domain, for device DMA. *)
let mk_dma_world () =
  let eng, mem, iommu, topo = mk_world () in
  let nic, bdf = mk_nic eng topo (Net_medium.create eng ()) '\x02' in
  Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2 Pci_cfg.cmd_bus_master;
  (mem, iommu, Iommu.attach iommu ~source:bdf, E1000_dev.device nic)

let fault_count iommu = List.length (Iommu.faults iommu)

(* Two IOVA-contiguous pages mapped to physical pages that are not
   adjacent: a transfer across the boundary lands on each mapped page,
   never on the physical page after the first. *)
let test_dma_scatters_across_pages () =
  let mem, iommu, d, dev = mk_dma_world () in
  Iommu.map iommu d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  Iommu.map iommu d ~iova:0x11000 ~phys:0x40000 ~len:4096 ~writable:true;
  Phys_mem.write mem ~addr:0x21000 (Bytes.make 16 'K');
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  (match Device.dma_write dev ~addr:0x10800 ~data with
   | Ok () -> ()
   | Error f -> Alcotest.failf "write: %s" (Bus.string_of_fault f));
  Alcotest.(check string) "first half on the first page"
    (Bytes.sub_string data 0 2048) (Bytes.to_string (Phys_mem.read mem ~addr:0x20800 ~len:2048));
  Alcotest.(check string) "second half on the second mapped page"
    (Bytes.sub_string data 2048 2048) (Bytes.to_string (Phys_mem.read mem ~addr:0x40000 ~len:2048));
  Alcotest.(check string) "the adjacent physical page is untouched" (String.make 16 'K')
    (Bytes.to_string (Phys_mem.read mem ~addr:0x21000 ~len:16));
  (match Device.dma_read dev ~addr:0x10800 ~len:4096 with
   | Ok b -> Alcotest.(check string) "read gathers both pages" (Bytes.to_string data) (Bytes.to_string b)
   | Error f -> Alcotest.failf "read: %s" (Bus.string_of_fault f));
  Alcotest.(check int) "no fault" 0 (fault_count iommu)

(* A transfer whose second page is not mapped faults and moves nothing,
   in either direction; nor may a write touch a read-only second page. *)
let test_dma_faults_on_unmapped_second_page () =
  let mem, iommu, d, dev = mk_dma_world () in
  Iommu.map iommu d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  Phys_mem.write mem ~addr:0x21000 (Bytes.make 16 'K');
  let expect_fault what r =
    match r with
    | Error (Bus.Iommu_fault { addr; _ }) -> Alcotest.(check int) (what ^ ": faulting page") 0x11000 addr
    | Error f -> Alcotest.failf "%s: unexpected %s" what (Bus.string_of_fault f)
    | Ok _ -> Alcotest.failf "%s: a DMA past the grant succeeded" what
  in
  expect_fault "write" (Device.dma_write dev ~addr:0x10000 ~data:(Bytes.make 8192 'X'));
  Alcotest.(check string) "the granted page is untouched" (String.make 16 '\000')
    (Bytes.to_string (Phys_mem.read mem ~addr:0x20000 ~len:16));
  Alcotest.(check string) "the next physical page is untouched" (String.make 16 'K')
    (Bytes.to_string (Phys_mem.read mem ~addr:0x21000 ~len:16));
  expect_fault "read" (Device.dma_read dev ~addr:0x10000 ~len:8192);
  Iommu.map iommu d ~iova:0x11000 ~phys:0x21000 ~len:4096 ~writable:false;
  expect_fault "write onto a read-only page"
    (Device.dma_write dev ~addr:0x10ff0 ~data:(Bytes.make 32 'X'));
  Alcotest.(check string) "nothing written before the read-only page" (String.make 16 '\000')
    (Bytes.to_string (Phys_mem.read mem ~addr:0x20ff0 ~len:16));
  Alcotest.(check int) "one IOMMU fault per refused transfer" 3 (fault_count iommu)

(* A scattered transfer whose second page is mapped past the end of RAM
   is a master abort, not an exception out of the device model. *)
let test_dma_scatter_outside_ram_aborts () =
  let _, iommu, d, dev = mk_dma_world () in
  Iommu.map iommu d ~iova:0x10000 ~phys:0x20000 ~len:4096 ~writable:true;
  Iommu.map iommu d ~iova:0x11000 ~phys:0x4000000 ~len:4096 ~writable:true;
  let is_abort = function Error (Bus.Bus_abort { addr }) -> addr = 0x10800 | _ -> false in
  Alcotest.(check bool) "write aborts" true
    (is_abort (Device.dma_write dev ~addr:0x10800 ~data:(Bytes.make 4096 'X')));
  Alcotest.(check bool) "read aborts" true (is_abort (Device.dma_read dev ~addr:0x10800 ~len:4096))

let test_bus_bdf () =
  let bdf = Bus.make_bdf ~bus:3 ~dev:31 ~fn:7 in
  Alcotest.(check int) "bus" 3 (Bus.bdf_bus bdf);
  Alcotest.(check int) "dev" 31 (Bus.bdf_dev bdf);
  Alcotest.(check int) "fn" 7 (Bus.bdf_fn bdf);
  Alcotest.(check string) "pp" "03:1f.7" (Bus.string_of_bdf bdf)

(* ---- net medium ---- *)

let test_medium_delivery () =
  let eng = Engine.create () in
  let m = Net_medium.create eng ~rate_bps:1_000_000_000 ~latency_ns:1000 () in
  let got = ref [] in
  let _a = Net_medium.attach m ~rx:(fun f -> got := ("a", Bytes.length f) :: !got) in
  let b = Net_medium.attach m ~rx:(fun f -> got := ("b", Bytes.length f) :: !got) in
  Net_medium.send m b (Bytes.make 100 'x');
  Engine.run eng;
  (* Only the other station hears it. *)
  Alcotest.(check (list (pair string int))) "unicast to peers" [ ("a", 100) ] !got;
  Alcotest.(check bool) "delivery delayed by wire time" true (Engine.now eng >= 1000)

let test_medium_serialization () =
  let eng = Engine.create () in
  let m = Net_medium.create eng ~rate_bps:1_000_000_000 ~latency_ns:0 () in
  let times = ref [] in
  let _a = Net_medium.attach m ~rx:(fun _ -> times := Engine.now eng :: !times) in
  let b = Net_medium.attach m ~rx:ignore in
  (* Two back-to-back frames serialize on the sender's line. *)
  Net_medium.send m b (Bytes.make 1500 'x');
  Net_medium.send m b (Bytes.make 1500 'x');
  Engine.run eng;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check bool) "second frame waits for the first" true (t2 >= 2 * t1)
  | _ -> Alcotest.fail "expected two deliveries"

(* ---- e1000 device model, driven raw ---- *)

let test_e1000_eeprom_mac () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let mac = Bytes.of_string "\x52\x54\x00\xAB\xCD\xEF" in
  let nic = E1000_dev.create eng ~mac ~medium () in
  let ops = Device.ops (E1000_dev.device nic) in
  ops.Device.mmio_write ~bar:0 ~off:E1000_dev.Regs.eerd ~size:4
    ((1 lsl 8) lor E1000_dev.Regs.eerd_start);
  let v = ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.eerd ~size:4 in
  Alcotest.(check bool) "done bit" true (v land E1000_dev.Regs.eerd_done <> 0);
  Alcotest.(check int) "word 1 = mac bytes 2,3" 0xAB00 ((v lsr 16) land 0xFFFF);
  Alcotest.(check bytes) "mac helper" mac (E1000_dev.mac nic)

let test_e1000_icr_read_clears () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let ops = Device.ops (E1000_dev.device nic) in
  ops.Device.mmio_write ~bar:0 ~off:E1000_dev.Regs.ics ~size:4 E1000_dev.Regs.int_txdw;
  Alcotest.(check int) "cause latched" E1000_dev.Regs.int_txdw
    (ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.icr ~size:4);
  Alcotest.(check int) "read cleared it" 0
    (ops.Device.mmio_read ~bar:0 ~off:E1000_dev.Regs.icr ~size:4)

(* ---- ne2k device model, driven raw ---- *)

let test_ne2k_remote_dma () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let nic = Ne2k_dev.create eng ~mac:(Bytes.of_string "\x52\x54\x00\x01\x02\x03") ~medium () in
  let ops = Device.ops (Ne2k_dev.device nic) in
  let outb off v = ops.Device.io_write ~bar:0 ~off ~size:1 v in
  let inb off = ops.Device.io_read ~bar:0 ~off ~size:1 in
  (* Write a pattern into card memory page 2 via remote DMA, read it back. *)
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_write);
  outb Ne2k_dev.Regs.rsar0 0x00;
  outb Ne2k_dev.Regs.rsar1 0x02;
  outb Ne2k_dev.Regs.rbcr0 4;
  outb Ne2k_dev.Regs.rbcr1 0;
  List.iter (fun v -> outb Ne2k_dev.Regs.dataport v) [ 0xDE; 0xAD; 0xBE; 0xEF ];
  Alcotest.(check bool) "RDC set after count exhausted" true
    (inb Ne2k_dev.Regs.isr land Ne2k_dev.Regs.isr_rdc <> 0);
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_read);
  outb Ne2k_dev.Regs.rsar0 0x00;
  outb Ne2k_dev.Regs.rsar1 0x02;
  outb Ne2k_dev.Regs.rbcr0 4;
  outb Ne2k_dev.Regs.rbcr1 0;
  let got = List.init 4 (fun _ -> inb Ne2k_dev.Regs.dataport) in
  Alcotest.(check (list int)) "roundtrip through card memory" [ 0xDE; 0xAD; 0xBE; 0xEF ] got

let test_ne2k_prom () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let mac = Bytes.of_string "\x52\x54\x00\xAA\xBB\xCC" in
  let nic = Ne2k_dev.create eng ~mac ~medium () in
  let ops = Device.ops (Ne2k_dev.device nic) in
  let outb off v = ops.Device.io_write ~bar:0 ~off ~size:1 v in
  let inb off = ops.Device.io_read ~bar:0 ~off ~size:1 in
  outb Ne2k_dev.Regs.cr (Ne2k_dev.Regs.cr_sta lor Ne2k_dev.Regs.cr_rd_read);
  outb Ne2k_dev.Regs.rsar0 0;
  outb Ne2k_dev.Regs.rsar1 0;
  outb Ne2k_dev.Regs.rbcr0 12;
  outb Ne2k_dev.Regs.rbcr1 0;
  let prom = List.init 12 (fun _ -> inb Ne2k_dev.Regs.dataport) in
  (* Doubled MAC bytes, as on real cards. *)
  List.iteri
    (fun i b ->
       Alcotest.(check int) (Printf.sprintf "prom[%d]" (2 * i)) (Char.code b)
         (List.nth prom (2 * i)))
    (List.init 6 (Bytes.get mac))

(* ---- wifi device model, driven raw ---- *)

let test_wifi_mailbox () =
  let eng = Engine.create () in
  let medium = Net_medium.create eng () in
  let wifi =
    Wifi_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium
      ~bss_list:[ { Wifi_dev.bssid = 9; ssid = "x"; signal_dbm = -30 } ] ()
  in
  let mem = Phys_mem.create ~size:(1 lsl 20) in
  ignore mem;
  let ops = Device.ops (Wifi_dev.device wifi) in
  let w32 off v = ops.Device.mmio_write ~bar:0 ~off ~size:4 v in
  let r32 off = ops.Device.mmio_read ~bar:0 ~off ~size:4 in
  (* Firmware gate. *)
  Alcotest.(check int) "fw not ready" 0 (r32 Wifi_dev.Regs.fw);
  w32 Wifi_dev.Regs.fw Wifi_dev.Regs.fw_magic;
  Alcotest.(check int) "fw ready" Wifi_dev.Regs.fw_ready (r32 Wifi_dev.Regs.fw);
  Alcotest.(check int) "bss table size" 1 (r32 Wifi_dev.Regs.bss_count);
  Alcotest.(check int) "bssid readable" 9 (r32 Wifi_dev.Regs.bss_table);
  Alcotest.(check bool) "not associated" true (Wifi_dev.associated wifi = None)

(* ---- hda device model: position wraps the cyclic buffer ---- *)

let test_hda_position_wraps () =
  let eng = Engine.create () in
  let hda = Hda_dev.create eng ~byte_rate:1_000_000 () in
  let mem = Phys_mem.create ~size:(1 lsl 20) in
  let iommu = Iommu.create ~mode:(Iommu.Intel_vtd { interrupt_remapping = false }) () in
  let ioports = Ioport.create () in
  let topo = Pci_topology.create ~mem ~iommu ~ioports () in
  let bdf = Pci_topology.attach topo ~switch:(Pci_topology.root_switch topo) (Hda_dev.device hda) in
  Pci_topology.cfg_write topo bdf ~off:Pci_cfg.command ~size:2
    (Pci_cfg.cmd_mem_enable lor Pci_cfg.cmd_bus_master);
  let ops = Device.ops (Hda_dev.device hda) in
  let w32 off v = ops.Device.mmio_write ~bar:0 ~off ~size:4 v in
  let r32 off = ops.Device.mmio_read ~bar:0 ~off ~size:4 in
  (* Two BDL entries of one page each in phys memory. *)
  let bdl = Phys_mem.alloc_pages mem ~pages:1 in
  let pcm = Phys_mem.alloc_pages mem ~pages:2 in
  Phys_mem.write64 mem bdl (Int64.of_int pcm);
  Phys_mem.write32 mem (bdl + 8) 4096;
  Phys_mem.write32 mem (bdl + 12) 0;
  Phys_mem.write64 mem (bdl + 16) (Int64.of_int (pcm + 4096));
  Phys_mem.write32 mem (bdl + 24) 4096;
  Phys_mem.write32 mem (bdl + 28) 0;
  w32 Hda_dev.Regs.sd0_bdpl bdl;
  w32 Hda_dev.Regs.sd0_bdpu 0;
  w32 Hda_dev.Regs.sd0_cbl 8192;
  w32 Hda_dev.Regs.sd0_lvi 1;
  w32 Hda_dev.Regs.sd0_ctl Hda_dev.Regs.sdctl_run;
  (* 1 MB/s for 20 ms = ~20 KB consumed: position must have wrapped. *)
  Engine.run ~max_time:20_000_000 eng;
  Alcotest.(check bool) "bytes consumed" true (Hda_dev.bytes_played hda > 8192);
  Alcotest.(check bool) "LPIB wrapped inside CBL" true (r32 Hda_dev.Regs.sd0_lpib < 8192);
  Alcotest.(check bool) "buffers completed repeatedly" true (Hda_dev.buffers_completed hda >= 2)

(* ---- topology: absent devices ---- *)

let test_cfg_of_missing_device () =
  let _, _, _, topo = mk_world () in
  Alcotest.(check int) "all-ones like real hardware" 0xFFFF
    (Pci_topology.cfg_read topo 0x55 ~off:0 ~size:2)

let test_medium_broadcast_domain () =
  let eng = Engine.create () in
  let m = Net_medium.create eng () in
  let hits = ref 0 in
  let _a = Net_medium.attach m ~rx:(fun _ -> incr hits) in
  let _b = Net_medium.attach m ~rx:(fun _ -> incr hits) in
  let c = Net_medium.attach m ~rx:(fun _ -> incr hits) in
  Net_medium.send m c (Bytes.make 64 'x');
  Engine.run eng;
  Alcotest.(check int) "both other stations hear it" 2 !hits;
  Alcotest.(check int) "frame counted once" 1 (Net_medium.frames_sent m)

(* ---- usb device models ---- *)

let test_usb_storage_scsi () =
  let disk = Usb_device.storage ~blocks:8 in
  Usb_device.set_address disk 1;
  (* CBW for READ CAPACITY *)
  let cb = Bytes.make 16 '\000' in
  Bytes.set cb 0 '\x25';
  let cbw = Bytes.make 31 '\000' in
  Bytes.set_int32_le cbw 0 0x43425355l;
  Bytes.set_int32_le cbw 4 7l;
  Bytes.set cbw 12 '\x80';
  Bytes.set cbw 14 '\x0A';
  Bytes.blit cb 0 cbw 15 10;
  (match Usb_device.endpoint_out disk ~ep:1 ~data:cbw with
   | Usb_device.Done _ -> ()
   | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "CBW rejected");
  (match Usb_device.endpoint_in disk ~ep:2 ~len:8 with
   | Usb_device.Done d ->
     Alcotest.(check int32) "last LBA" 7l (Bytes.get_int32_be d 0);
     Alcotest.(check int32) "block size" 512l (Bytes.get_int32_be d 4)
   | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "no capacity data");
  match Usb_device.endpoint_in disk ~ep:2 ~len:13 with
  | Usb_device.Done csw ->
    Alcotest.(check int32) "CSW signature" 0x53425355l (Bytes.get_int32_le csw 0);
    Alcotest.(check char) "status ok" '\000' (Bytes.get csw 12)
  | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "no CSW"

let test_usb_kbd_reports () =
  let kbd = Usb_device.keyboard () in
  (match Usb_device.endpoint_in kbd ~ep:1 ~len:8 with
   | Usb_device.Nak -> ()
   | Usb_device.Done _ | Usb_device.Stall -> Alcotest.fail "idle keyboard must NAK");
  Usb_device.keyboard_press kbd ~key:0x1D;
  match Usb_device.endpoint_in kbd ~ep:1 ~len:8 with
  | Usb_device.Done r -> Alcotest.(check char) "keycode in byte 2" '\x1d' (Bytes.get r 2)
  | Usb_device.Nak | Usb_device.Stall -> Alcotest.fail "report expected"

(* ---- property tests ---- *)

let qcheck_cases =
  [ phys_mem_matches_flat_model;
    QCheck.Test.make ~name:"phys_mem write/read roundtrip" ~count:200
      QCheck.(pair (int_bound 60000) (string_of_size Gen.(int_range 1 5000)))
      (fun (addr, s) ->
         let m = Phys_mem.create ~size:(1 lsl 17) in
         Phys_mem.write m ~addr (Bytes.of_string s);
         Bytes.to_string (Phys_mem.read m ~addr ~len:(String.length s)) = s);
    QCheck.Test.make ~name:"iommu map then translate every page" ~count:100
      QCheck.(pair (int_bound 200) (int_bound 30))
      (fun (page, npages) ->
         let npages = npages + 1 in
         let io = Iommu.create ~mode:mode_vtd () in
         let d = Iommu.attach io ~source:1 in
         let iova = 0x40000000 + (page * 4096) in
         Iommu.map io d ~iova ~phys:0x100000 ~len:(npages * 4096) ~writable:true;
         List.for_all
           (fun i ->
              match
                Iommu.translate io ~source:1 ~addr:(iova + (i * 4096) + 7) ~dir:Bus.Dma_write
              with
              | `Phys p -> p = 0x100000 + (i * 4096) + 7
              | `Msi | `Fault _ -> false)
           (List.init npages Fun.id));
    QCheck.Test.make ~name:"iopb grant ranges reported exactly" ~count:200
      QCheck.(pair (int_bound 60000) (int_range 1 100))
      (fun (base, len) ->
         let b = Ioport.Iopb.none () in
         Ioport.Iopb.grant b ~base ~len;
         Ioport.Iopb.granted_ranges b = [ (base, len) ]) ]

let suite =
  [ Alcotest.test_case "phys_mem: rw" `Quick test_phys_rw;
    Alcotest.test_case "phys_mem: cross page" `Quick test_phys_cross_page;
    Alcotest.test_case "phys_mem: bounds" `Quick test_phys_bounds;
    Alcotest.test_case "phys_mem: allocator" `Quick test_phys_alloc;
    Alcotest.test_case "phys_mem: exhaustion" `Quick test_phys_exhaustion;
    Alcotest.test_case "phys_mem: storage only where written" `Quick test_phys_sparse;
    Alcotest.test_case "pci_cfg: ids" `Quick test_cfg_ids;
    Alcotest.test_case "pci_cfg: BAR sizing" `Quick test_cfg_bar_sizing;
    Alcotest.test_case "pci_cfg: MSI capability" `Quick test_cfg_msi;
    Alcotest.test_case "pci_cfg: command bits" `Quick test_cfg_command_bits;
    Alcotest.test_case "pci_cfg: rejects sub-page BAR" `Quick test_cfg_rejects_tiny_bar;
    Alcotest.test_case "iommu: translate" `Quick test_iommu_translate;
    Alcotest.test_case "iommu: passthrough" `Quick test_iommu_passthrough;
    Alcotest.test_case "iommu: write protection" `Quick test_iommu_write_protection;
    Alcotest.test_case "iommu: MSI quirks (Intel vs AMD)" `Quick test_iommu_msi_quirk;
    Alcotest.test_case "iommu: unmap + IOTLB flush" `Quick test_iommu_unmap_flush;
    Alcotest.test_case "iommu: IOTLB hit/miss counters" `Quick test_iotlb_counters;
    Alcotest.test_case "iommu: IOTLB conflict eviction" `Quick test_iotlb_conflict_eviction;
    Alcotest.test_case "iommu: no stale IOTLB after unmap/detach" `Quick
      test_iotlb_no_stale_after_unmap;
    Alcotest.test_case "iommu: iotlb_flush scrubs cache" `Quick test_iotlb_flush_scrubs;
    Alcotest.test_case "iommu: mappings merge" `Quick test_iommu_mappings_merge;
    Alcotest.test_case "iommu: interrupt remapping" `Quick test_iommu_ir;
    Alcotest.test_case "ioport: IOPB" `Quick test_iopb;
    Alcotest.test_case "ioport: GP fault" `Quick test_ioport_gp;
    Alcotest.test_case "ioport: overlap" `Quick test_ioport_overlap;
    Alcotest.test_case "topology: cfg + mmio decode" `Quick test_topology_cfg_and_mmio;
    Alcotest.test_case "topology: unknown address" `Quick test_topology_unknown_addr;
    Alcotest.test_case "topology: BDF assignment" `Quick test_topology_bdf_assignment;
    Alcotest.test_case "topology: DMA scatters across non-adjacent pages" `Quick
      test_dma_scatters_across_pages;
    Alcotest.test_case "topology: DMA past an unmapped page faults" `Quick
      test_dma_faults_on_unmapped_second_page;
    Alcotest.test_case "topology: scattered page outside RAM aborts" `Quick
      test_dma_scatter_outside_ram_aborts;
    Alcotest.test_case "bus: BDF packing" `Quick test_bus_bdf;
    Alcotest.test_case "medium: delivery" `Quick test_medium_delivery;
    Alcotest.test_case "medium: serialization" `Quick test_medium_serialization;
    Alcotest.test_case "e1000: EEPROM MAC" `Quick test_e1000_eeprom_mac;
    Alcotest.test_case "e1000: ICR read-clear" `Quick test_e1000_icr_read_clears;
    Alcotest.test_case "ne2k: remote DMA" `Quick test_ne2k_remote_dma;
    Alcotest.test_case "ne2k: PROM" `Quick test_ne2k_prom;
    Alcotest.test_case "wifi: firmware gate + bss table" `Quick test_wifi_mailbox;
    Alcotest.test_case "hda: position wraps" `Quick test_hda_position_wraps;
    Alcotest.test_case "topology: missing device reads -1" `Quick test_cfg_of_missing_device;
    Alcotest.test_case "medium: broadcast domain" `Quick test_medium_broadcast_domain;
    Alcotest.test_case "usb: storage SCSI" `Quick test_usb_storage_scsi;
    Alcotest.test_case "usb: keyboard reports" `Quick test_usb_kbd_reports ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
