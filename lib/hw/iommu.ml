type mode =
  | Intel_vtd of { interrupt_remapping : bool }
  | Amd_vi

type pte = { phys : int; writable : bool }

type domain = {
  (* Two-level table over a 4 GiB IO virtual space: directory index = bits
     31..22, table index = bits 21..12. *)
  dir : pte option array option array;
  dom_source : Bus.bdf;             (* requester this domain translates for *)
}

(* One cached translation: the IOTLB caches the pte {e with} its permission
   bits, so a write to a read-only page faults without a walk — and so a
   stale entry surviving an unmap would be a genuine containment hole, which
   is why every unmap/detach/flush scrubs the cache below. *)
type iotlb_entry = {
  e_source : Bus.bdf;
  e_vpage : int;                    (* iova lsr 12 *)
  e_ppage : int;                    (* page-aligned physical base *)
  e_writable : bool;
}


type metrics = {
  (* Translate sits on the DMA fast path (~9 ns/hit): the hit/miss tallies
     stay plain mutable words on [t] and the registry reads them through
     gauge callbacks, so instrumenting them costs the hot path nothing. *)
  im_hits : Sud_obs.Metrics.gauge;
  im_misses : Sud_obs.Metrics.gauge;
  im_evictions : Sud_obs.Metrics.counter;
  im_flushes : Sud_obs.Metrics.counter;
  im_faults : Sud_obs.Metrics.counter;
  im_ir_writes : Sud_obs.Metrics.counter;
}

type t = {
  mode : mode;
  domains : (Bus.bdf, domain) Hashtbl.t;
  iotlb : iotlb_entry option array; (* direct-mapped on (source, vpage) *)
  mutable tlb_hits : int;           (* hot words, exported as gauges *)
  mutable tlb_misses : int;
  mutable m : metrics option;       (* set once in [create] *)
  mutable flt : Bus.fault list;     (* newest first *)
  ir_table : (Bus.bdf * int, unit) Hashtbl.t;
}

let dir_slots = 1024
let tbl_slots = 1024
let iotlb_slots = 64

let create ~mode () =
  let c name = Sud_obs.Metrics.counter ~subsystem:"iommu" ~name () in
  let g name f = Sud_obs.Metrics.gauge ~subsystem:"iommu" ~name f in
  let t =
    { mode;
      domains = Hashtbl.create 8;
      iotlb = Array.make iotlb_slots None;
      tlb_hits = 0;
      tlb_misses = 0;
      m = None;
      flt = [];
      ir_table = Hashtbl.create 8 }
  in
  (* The gauges close over [t], so the record is knotted after the fact. *)
  t.m <-
    Some
      { im_hits = g "iotlb_hits" (fun () -> t.tlb_hits);
        im_misses = g "iotlb_misses" (fun () -> t.tlb_misses);
        im_evictions = c "iotlb_evictions";
        im_flushes = c "iotlb_flushes";
        im_faults = c "faults";
        im_ir_writes = c "ir_updates" };
  t

let mode t = t.mode
let metrics t = match t.m with Some m -> m | None -> assert false

let iotlb_slot source vpage = (vpage lxor (source * 7919)) land (iotlb_slots - 1)

let iotlb_drop_page t ~source ~vpage =
  let i = iotlb_slot source vpage in
  match t.iotlb.(i) with
  | Some e when e.e_source = source && e.e_vpage = vpage -> t.iotlb.(i) <- None
  | Some _ | None -> ()

let iotlb_drop_source t ~source =
  for i = 0 to iotlb_slots - 1 do
    match t.iotlb.(i) with
    | Some e when e.e_source = source -> t.iotlb.(i) <- None
    | Some _ | None -> ()
  done

let fresh_domain ~source = { dir = Array.make dir_slots None; dom_source = source }

let attach t ~source =
  match Hashtbl.find_opt t.domains source with
  | Some d -> d
  | None ->
    let d = fresh_domain ~source in
    Hashtbl.add t.domains source d;
    (* Defensive: a translation cached while the device ran in passthrough
       must not outlive the confinement decision (we never cache the
       passthrough path, but scrubbing here keeps the invariant local). *)
    iotlb_drop_source t ~source;
    d

let detach t ~source =
  Hashtbl.remove t.domains source;
  iotlb_drop_source t ~source

let domain_of t ~source = Hashtbl.find_opt t.domains source

let indices iova = (iova lsr 22) land (dir_slots - 1), (iova lsr 12) land (tbl_slots - 1)

let lookup d iova =
  let di, ti = indices iova in
  match d.dir.(di) with None -> None | Some tbl -> tbl.(ti)

let check_range name iova len =
  if not (Bus.is_page_aligned iova) then invalid_arg (name ^ ": iova not page-aligned");
  if len <= 0 || not (Bus.is_page_aligned len) then
    invalid_arg (name ^ ": length must be a positive page multiple");
  if iova + len > 0x1_0000_0000 then invalid_arg (name ^ ": beyond 4GiB IO space")

let map _t d ~iova ~phys ~len ~writable =
  check_range "Iommu.map" iova len;
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"iommu" ~name:"map"
         ~attrs:
           [ "bdf", Bus.string_of_bdf d.dom_source; "iova", Printf.sprintf "0x%x" iova;
             "len", string_of_int len; "writable", string_of_bool writable ]
         ());
  if not (Bus.is_page_aligned phys) then invalid_arg "Iommu.map: phys not page-aligned";
  let pages = len / Bus.page_size in
  for i = 0 to pages - 1 do
    let va = iova + (i * Bus.page_size) and pa = phys + (i * Bus.page_size) in
    let di, ti = indices va in
    let tbl =
      match d.dir.(di) with
      | Some tbl -> tbl
      | None ->
        let tbl = Array.make tbl_slots None in
        d.dir.(di) <- Some tbl;
        tbl
    in
    (match tbl.(ti) with
     | Some existing when existing.phys <> pa || existing.writable <> writable ->
       invalid_arg "Iommu.map: conflicting existing mapping"
     | Some _ -> ()
     | None ->
       tbl.(ti) <- Some { phys = pa; writable })
  done

let unmap t d ~iova ~len =
  check_range "Iommu.unmap" iova len;
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"iommu" ~name:"unmap"
         ~attrs:
           [ "bdf", Bus.string_of_bdf d.dom_source; "iova", Printf.sprintf "0x%x" iova;
             "len", string_of_int len ]
         ());
  let pages = len / Bus.page_size in
  for i = 0 to pages - 1 do
    let va = iova + (i * Bus.page_size) in
    iotlb_drop_page t ~source:d.dom_source ~vpage:(va lsr 12);
    let di, ti = indices va in
    match d.dir.(di) with
    | None -> ()
    | Some tbl ->
      tbl.(ti) <- None
  done;
  Sud_obs.Metrics.incr (metrics t).im_flushes

(* The fault span is the causal pivot of the whole observability layer:
   it parents to the ambient span (a handler running inside a uchan RPC)
   or, for device DMA fired from engine callbacks, to the most recent
   RPC issued on any channel — and it is remembered per-BDF so the
   supervisor can parent its detect span to it. *)
let record_fault t f =
  t.flt <- f :: t.flt;
  Sud_obs.Metrics.incr (metrics t).im_faults;
  if Sud_obs.Trace.on () then begin
    match f with
    | Bus.Iommu_fault { source; addr; dir } ->
      let parent =
        let c = Sud_obs.Trace.current () in
        if c <> 0 then c else Sud_obs.Trace.recall "uchan.rpc.last"
      in
      let id =
        Sud_obs.Trace.emit ~parent ~cat:"iommu" ~name:"fault"
          ~attrs:
            [ "bdf", Bus.string_of_bdf source; "addr", Printf.sprintf "0x%x" addr;
              "dir", (match dir with Bus.Dma_read -> "read" | Bus.Dma_write -> "write") ]
          ()
      in
      Sud_obs.Trace.remember (Printf.sprintf "iommu.fault.last:%d" source) id;
      Sud_obs.Trace.remember "iommu.fault.last" id
    | _ -> ()
  end;
  `Fault f

(* The two-level walk plus IOTLB fill, on a cache miss. *)
let walk_and_fill t d ~source ~addr ~dir =
  match lookup d addr with
  | Some pte ->
    let vpage = addr lsr 12 in
    let i = iotlb_slot source vpage in
    (match t.iotlb.(i) with
     | Some e when not (e.e_source = source && e.e_vpage = vpage) ->
       Sud_obs.Metrics.incr (metrics t).im_evictions
     | Some _ | None -> ());
    t.iotlb.(i) <- Some { e_source = source; e_vpage = vpage; e_ppage = pte.phys;
                          e_writable = pte.writable };
    if dir = Bus.Dma_read || pte.writable then `Phys (pte.phys lor (addr land Bus.page_mask))
    else record_fault t (Bus.Iommu_fault { source; addr; dir })
  | None -> record_fault t (Bus.Iommu_fault { source; addr; dir })

(* Everything off the IOTLB fast path: MSI-window writes, passthrough,
   and cache misses. *)
let translate_slow t ~source ~addr ~dir =
  let in_msi = Bus.in_msi_window addr in
  let dom = Hashtbl.find_opt t.domains source in
  match t.mode, dom with
  | Intel_vtd _, _ when in_msi && dir = Bus.Dma_write ->
    (* The implicit identity mapping: present in every VT-d page table,
       whether or not a domain exists. *)
    (`Msi, `Bypass)
  | _, None ->
    (* No domain attached: passthrough, as for trusted in-kernel drivers
       (Linux iommu=pt).  SUD attaches an (initially empty) domain the
       moment an untrusted driver opens the device.  Never cached: the
       moment a domain appears, these identity translations must die. *)
    ((if in_msi && dir = Bus.Dma_write then `Msi else `Phys addr), `Bypass)
  | Amd_vi, Some d when in_msi && dir = Bus.Dma_write ->
    (match lookup d addr with
     | Some _ -> (`Msi, `Walk)
     | None -> (record_fault t (Bus.Iommu_fault { source; addr; dir }), `Walk))
  | (Intel_vtd _ | Amd_vi), Some d ->
    t.tlb_misses <- t.tlb_misses + 1;
    (walk_and_fill t d ~source ~addr ~dir, `Walk)

let translate_info t ~source ~addr ~dir =
  (* IOTLB first, before the domain hashtable is even touched.  Sound
     because only successful walks of an attached domain are ever inserted,
     MSI-window writes are diverted before the cache can answer (an AMD
     domain may legitimately map the window as [`Phys] for reads), and
     unmap/detach/flush scrub their entries. *)
  if Bus.in_msi_window addr && dir = Bus.Dma_write then translate_slow t ~source ~addr ~dir
  else begin
    let vpage = addr lsr 12 in
    match t.iotlb.(iotlb_slot source vpage) with
    | Some e when e.e_source = source && e.e_vpage = vpage ->
      t.tlb_hits <- t.tlb_hits + 1;
      if dir = Bus.Dma_read || e.e_writable then
        (`Phys (e.e_ppage lor (addr land Bus.page_mask)), `Hit)
      else (record_fault t (Bus.Iommu_fault { source; addr; dir }), `Hit)
    | Some _ | None -> translate_slow t ~source ~addr ~dir
  end

let translate t ~source ~addr ~dir = fst (translate_info t ~source ~addr ~dir)

let mappings d =
  let runs = ref [] in
  let cur = ref None in
  let flush_run () =
    match !cur with
    | Some (iova, phys, len, w) ->
      runs := (iova, phys, len, w) :: !runs;
      cur := None
    | None -> ()
  in
  for di = 0 to dir_slots - 1 do
    match d.dir.(di) with
    | None -> flush_run ()
    | Some tbl ->
      for ti = 0 to tbl_slots - 1 do
        let va = (di lsl 22) lor (ti lsl 12) in
        match tbl.(ti) with
        | None -> flush_run ()
        | Some pte ->
          (match !cur with
           | Some (iova, phys, len, w)
             when iova + len = va && phys + len = pte.phys && w = pte.writable ->
             cur := Some (iova, phys, len + Bus.page_size, w)
           | Some _ | None ->
             flush_run ();
             cur := Some (va, pte.phys, Bus.page_size, pte.writable))
      done
  done;
  flush_run ();
  List.rev !runs

let iotlb_flush t d =
  iotlb_drop_source t ~source:d.dom_source;
  Sud_obs.Metrics.incr (metrics t).im_flushes

let faults t = List.rev t.flt

let ir_available t =
  match t.mode with
  | Intel_vtd { interrupt_remapping } -> interrupt_remapping
  | Amd_vi -> false

let ir_allow t ~source ~vector =
  Sud_obs.Metrics.incr (metrics t).im_ir_writes;
  Hashtbl.replace t.ir_table (source, vector) ()

let ir_block_source t ~source =
  Sud_obs.Metrics.incr (metrics t).im_ir_writes;
  let doomed =
    Hashtbl.fold (fun (s, v) () acc -> if s = source then (s, v) :: acc else acc) t.ir_table []
  in
  List.iter (fun key -> Hashtbl.remove t.ir_table key) doomed

let ir_check t ~source ~vector =
  if not (ir_available t) then true
  else Hashtbl.mem t.ir_table (source, vector)

