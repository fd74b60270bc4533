type acs = { mutable source_validation : bool; mutable p2p_redirect : bool }

type switch = {
  sacs : acs;
  parent : switch option;         (* None = the root complex *)
  bus : int;
  mutable next_dev : int;
}

type attached = {
  dev : Device.t;
  abdf : Bus.bdf;
  sw : switch;
  mmio_bars : (int * int * int) list;  (* (bar, base, size) *)
  io_bars : (int * int * int) list;    (* (bar, port_base, len) *)
}

type t = {
  mem : Phys_mem.t;
  iommu : Iommu.t;
  ioports : Ioport.t;
  root : switch;
  mutable sws : switch list;
  mutable next_bus : int;
  mutable devs : attached list;
  mutable next_mmio : int;
  mutable next_io : int;
  mutable msi_sink : (source:Bus.bdf -> vector:int -> unit) option;
  mutable dma_charge : ([ `Hit | `Walk | `Bypass ] -> unit) option;
  mutable flt : Bus.fault list;   (* newest first *)
  pm : metrics;
}
and metrics = {
  pm_p2p : Sud_obs.Metrics.counter;
  pm_msi : Sud_obs.Metrics.counter;
  pm_ir_blocked : Sud_obs.Metrics.counter;
}

(* MMIO windows are carved from high physical space, well above any RAM the
   simulator allocates, so BAR addresses and DMA-able RAM never collide. *)
let mmio_window_base = 0xE000_0000
let io_window_base = 0xC000

let create ~mem ~iommu ~ioports () =
  let root = { sacs = { source_validation = false; p2p_redirect = false }; parent = None; bus = 0; next_dev = 0 } in
  { mem;
    iommu;
    ioports;
    root;
    sws = [ root ];
    next_bus = 1;
    devs = [];
    next_mmio = mmio_window_base;
    next_io = io_window_base;
    msi_sink = None;
    dma_charge = None;
    flt = [];
    pm =
      (let c name = Sud_obs.Metrics.counter ~subsystem:"pci" ~name () in
       { pm_p2p = c "p2p_delivered";
         pm_msi = c "msi_delivered";
         pm_ir_blocked = c "msi_blocked_by_ir" }) }

let root_switch t = t.root

let add_switch t ~parent =
  let sw = { sacs = { source_validation = false; p2p_redirect = false }; parent = Some parent; bus = t.next_bus; next_dev = 0 } in
  t.next_bus <- t.next_bus + 1;
  t.sws <- sw :: t.sws;
  sw

let enable_acs_everywhere t =
  List.iter
    (fun sw ->
       sw.sacs.source_validation <- true;
       sw.sacs.p2p_redirect <- true)
    t.sws

let find_attached t bdf = List.find_opt (fun a -> a.abdf = bdf) t.devs
let find_device t bdf = Option.map (fun a -> a.dev) (find_attached t bdf)

let set_msi_sink t sink = t.msi_sink <- Some sink
let set_dma_charge t f = t.dma_charge <- Some f

let record_fault t f = t.flt <- f :: t.flt

(* Path from a device's switch up to (excluding) the root pseudo-switch's
   parent: immediate switch first. *)
let rec switch_path sw = sw :: (match sw.parent with None -> [] | Some p -> switch_path p)

let alloc_aligned next size =
  let base = (next + size - 1) land lnot (size - 1) in
  (base, base + size)

(* ---- CPU-side decode tables ---- *)

let mmio_target t addr =
  List.find_map
    (fun a ->
       List.find_map
         (fun (bar, base, size) ->
            if addr >= base && addr < base + size then Some (a, bar, addr - base) else None)
         a.mmio_bars)
    t.devs

let mmio_read t ~addr ~size =
  match mmio_target t addr with
  | Some (a, bar, off) when Pci_cfg.command_has (Device.cfg a.dev) Pci_cfg.cmd_mem_enable ->
    (Device.ops a.dev).mmio_read ~bar ~off ~size
  | Some _ | None -> raise (Phys_mem.Bus_error addr)

let mmio_write t ~addr ~size v =
  match mmio_target t addr with
  | Some (a, bar, off) when Pci_cfg.command_has (Device.cfg a.dev) Pci_cfg.cmd_mem_enable ->
    (Device.ops a.dev).mmio_write ~bar ~off ~size v
  | Some _ | None -> raise (Phys_mem.Bus_error addr)

(* ---- Device-initiated transactions ---- *)

let deliver_msi t ~source ~data =
  let vector = data land 0xff in
  if Iommu.ir_check t.iommu ~source ~vector then begin
    Sud_obs.Metrics.incr t.pm.pm_msi;
    match t.msi_sink with
    | Some sink -> sink ~source ~vector
    | None -> ()
  end
  else begin
    Sud_obs.Metrics.incr t.pm.pm_ir_blocked;
    record_fault t (Bus.Ir_blocked { source; vector })
  end

(* Check ACS source validation at the requester's upstream port. *)
let source_ok t requester ~claimed =
  let sw = requester.sw in
  if sw.sacs.source_validation && claimed <> requester.abdf then begin
    let f = Bus.Source_invalid { claimed; port = requester.abdf } in
    record_fault t f;
    Error f
  end
  else Ok ()

(* Find a peer whose MMIO BAR claims [addr] and whose lowest common ancestor
   switch with the requester does not redirect P2P requests upward. *)
let p2p_victim t requester addr =
  match mmio_target t addr with
  | Some (victim, bar, off) when victim.abdf <> requester.abdf ->
    let req_path = switch_path requester.sw in
    let vic_path = switch_path victim.sw in
    let lca = List.find_opt (fun sw -> List.memq sw vic_path) req_path in
    (match lca with
     | Some sw when not sw.sacs.p2p_redirect -> Some (victim, bar, off)
     | Some _ | None -> None)
  | Some _ | None -> None

(* Every DMA that reaches the root complex pays for its translation: an
   IOTLB hit is nearly free, a page-table walk is not, passthrough costs
   nothing extra.  The sink (installed by the kernel) maps the outcome to
   Cost_model charges, so Figure 8 reflects the cache. *)
let translate_charged t ~source ~addr ~dir =
  let result, how = Iommu.translate_info t.iommu ~source ~addr ~dir in
  (match t.dma_charge with Some f -> f how | None -> ());
  result

(* Where a device-initiated transfer goes, decided before any byte
   moves. *)
type route =
  | Peer of attached * int * int  (* a peer's BAR: victim, bar, offset *)
  | Run of int                    (* within one page, from here *)
  | Scatter of int array          (* per page touched, its physical address;
                                     the first at the transfer's offset *)
  | Msi
  | Fault of Bus.fault

let abort t addr =
  let f = Bus.Bus_abort { addr } in
  record_fault t f;
  f

(* Translate, and charge, every IOVA page that [addr, addr+len) touches,
   so a transfer is confined page by page and not just by its first
   byte.  Any page that faults, or that falls in the MSI window, fails
   the whole transfer; only a write within one page can be an MSI. *)
let translate_pages t ~source ~addr ~len ~dir =
  let pages = max 1 (((addr land Bus.page_mask) + len + Bus.page_mask) / Bus.page_size) in
  match translate_charged t ~source ~addr ~dir with
  | `Fault f -> Fault f
  | `Msi -> if pages = 1 then Msi else Fault (abort t addr)
  | `Phys p when pages = 1 -> Run p
  | `Phys p ->
    let base = Bus.page_align_down addr and a = Array.make pages p in
    let rec more i =
      if i = pages then Scatter a
      else
        let va = base + (i * Bus.page_size) in
        match translate_charged t ~source ~addr:va ~dir with
        | `Fault f -> Fault f
        | `Msi -> Fault (abort t va)
        | `Phys q -> a.(i) <- q; more (i + 1)
    in
    more 1

let route t ~source ~addr ~len ~dir =
  match find_attached t source with
  | None ->
    (* A spoofed requester ID that got past validation: translate under the
       claimed source's IOMMU domain. *)
    translate_pages t ~source ~addr ~len ~dir
  | Some requester ->
    (match p2p_victim t requester addr with
     | Some (victim, bar, off) ->
       Sud_obs.Metrics.incr t.pm.pm_p2p;
       Peer (victim, bar, off)
     | None -> translate_pages t ~source ~addr ~len ~dir)

(* [f phys off n] for each page of a scattered transfer: its [n] bytes
   at offset [off] of the transfer live at [phys]. *)
let iter_pages pages ~len f =
  let off = ref 0 and i = ref 0 in
  while !off < len do
    let n = min (len - !off) (Bus.page_size - (pages.(!i) land Bus.page_mask)) in
    f pages.(!i) !off n;
    off := !off + n;
    incr i
  done

let host_iface_for t att =
  let dma_read ~source ~addr ~len =
    match source_ok t att ~claimed:source with
    | Error f -> Error f
    | Ok () ->
      (match route t ~source ~addr ~len ~dir:Bus.Dma_read with
       | Peer (victim, bar, off) ->
         (* Peer-to-peer read: pull bytes out of the victim's registers. *)
         let b = Bytes.create len in
         for i = 0 to len - 1 do
           Bytes.set b i
             (Char.chr ((Device.ops victim.dev).mmio_read ~bar ~off:(off + i) ~size:1 land 0xff))
         done;
         Ok b
       | Run p ->
         (match Phys_mem.read t.mem ~addr:p ~len with
          | b -> Ok b
          | exception Phys_mem.Bus_error _ -> Error (abort t addr))
       | Scatter pages ->
         let b = Bytes.create len in
         (match
            iter_pages pages ~len (fun phys off n ->
                Phys_mem.blit_out t.mem ~addr:phys ~dst:b ~dst_off:off ~len:n)
          with
          | () -> Ok b
          | exception Phys_mem.Bus_error _ -> Error (abort t addr))
       | Msi -> Error (abort t addr)
       | Fault f -> Error f)
  in
  let dma_write ~source ~addr ~data =
    match source_ok t att ~claimed:source with
    | Error f -> Error f
    | Ok () ->
      let len = Bytes.length data in
      (match route t ~source ~addr ~len ~dir:Bus.Dma_write with
       | Peer (victim, bar, off) ->
         Bytes.iteri
           (fun i c ->
              (Device.ops victim.dev).mmio_write ~bar ~off:(off + i) ~size:1 (Char.code c))
           data;
         Ok ()
       | Run p ->
         (match Phys_mem.write t.mem ~addr:p data with
          | () -> Ok ()
          | exception Phys_mem.Bus_error _ -> Error (abort t addr))
       | Scatter pages ->
         (* Only a page mapped outside RAM can abort part-way. *)
         (match
            iter_pages pages ~len (fun phys off n ->
                Phys_mem.blit_in t.mem ~addr:phys ~src:data ~src_off:off ~len:n)
          with
          | () -> Ok ()
          | exception Phys_mem.Bus_error _ -> Error (abort t addr))
       | Msi ->
         if len >= 4 then
           deliver_msi t ~source ~data:(Int32.to_int (Bytes.get_int32_le data 0) land 0xFFFFFFFF);
         Ok ()
       | Fault f -> Error f)
  in
  { Device.dma_read; dma_write }

let attach t ~switch:sw dev =
  if Device.is_attached dev then invalid_arg "Pci_topology.attach: already attached";
  let bdf = Bus.make_bdf ~bus:sw.bus ~dev:sw.next_dev ~fn:0 in
  sw.next_dev <- sw.next_dev + 1;
  let cfg = Device.cfg dev in
  let mmio_bars = ref [] and io_bars = ref [] in
  for bar = 0 to 5 do
    match Pci_cfg.bar_kind cfg bar with
    | Some (Pci_cfg.Mem { size }) ->
      let base, next = alloc_aligned t.next_mmio size in
      t.next_mmio <- next;
      Pci_cfg.set_bar_base cfg bar base;
      mmio_bars := (bar, base, size) :: !mmio_bars
    | Some (Pci_cfg.Io { size }) ->
      let base, next = alloc_aligned t.next_io size in
      t.next_io <- next;
      Pci_cfg.set_bar_base cfg bar base;
      io_bars := (bar, base, size) :: !io_bars
    | None -> ()
  done;
  let att = { dev; abdf = bdf; sw; mmio_bars = List.rev !mmio_bars; io_bars = List.rev !io_bars } in
  List.iter
    (fun (bar, base, len) ->
       Ioport.register t.ioports ~base ~len
         ~read:(fun ~off ~size ->
             if Pci_cfg.command_has cfg Pci_cfg.cmd_io_enable then
               (Device.ops dev).io_read ~bar ~off ~size
             else (1 lsl (size * 8)) - 1)
         ~write:(fun ~off ~size v ->
             if Pci_cfg.command_has cfg Pci_cfg.cmd_io_enable then
               (Device.ops dev).io_write ~bar ~off ~size v))
    att.io_bars;
  t.devs <- att :: t.devs;
  Device.attach_to_host dev ~bdf (host_iface_for t att);
  bdf

let cfg_read t bdf ~off ~size =
  match find_attached t bdf with
  | Some a -> Pci_cfg.read (Device.cfg a.dev) ~off ~size
  | None -> (1 lsl (size * 8)) - 1

let cfg_write t bdf ~off ~size v =
  match find_attached t bdf with
  | Some a -> Pci_cfg.write (Device.cfg a.dev) ~off ~size v
  | None -> ()

let bar_region t bdf ~bar =
  match find_attached t bdf with
  | None -> None
  | Some a ->
    List.find_map (fun (b, base, size) -> if b = bar then Some (base, size) else None) a.mmio_bars

let io_region t bdf ~bar =
  match find_attached t bdf with
  | None -> None
  | Some a ->
    List.find_map (fun (b, base, size) -> if b = bar then Some (base, size) else None) a.io_bars

let routing_faults t = List.rev t.flt
let metrics t = t.pm

