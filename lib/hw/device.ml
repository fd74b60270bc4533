type ops = {
  mmio_read : bar:int -> off:int -> size:int -> int;
  mmio_write : bar:int -> off:int -> size:int -> int -> unit;
  io_read : bar:int -> off:int -> size:int -> int;
  io_write : bar:int -> off:int -> size:int -> int -> unit;
  reset : unit -> unit;
}

type host_iface = {
  dma_read : source:Bus.bdf -> addr:int -> len:int -> (bytes, Bus.fault) result;
  dma_write : source:Bus.bdf -> addr:int -> data:bytes -> (unit, Bus.fault) result;
}

type t = {
  dname : string;
  dcfg : Pci_cfg.t;
  mutable dops : ops;
  mutable dbdf : Bus.bdf option;
  mutable host : host_iface option;
  mutable spoof : Bus.bdf option;
}

let no_io =
  let fail _ = failwith "Device: ops not installed" in
  { mmio_read = (fun ~bar:_ ~off:_ ~size:_ -> fail ());
    mmio_write = (fun ~bar:_ ~off:_ ~size:_ _ -> fail ());
    io_read = (fun ~bar:_ ~off:_ ~size:_ -> fail ());
    io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> fail ());
    reset = (fun () -> fail ()) }

let mmio32 ~read32 ~peek ~write32 ~reset =
  (* The word a sub-word access falls in, its bit shift and its mask. *)
  let sub_access off size =
    let shift = (off land 3) * 8 in
    (off land lnot 3, shift, ((1 lsl (size * 8)) - 1) lsl shift)
  in
  let aligned off size = size = 4 && off land 3 = 0 in
  { mmio_read =
      (fun ~bar ~off ~size ->
         if bar <> 0 then 0
         else if aligned off size then read32 off
         else begin
           let word, shift, mask = sub_access off size in
           (peek word land mask) lsr shift
         end);
    mmio_write =
      (fun ~bar ~off ~size v ->
         if bar <> 0 then ()
         else if aligned off size then write32 off v
         else begin
           let word, shift, mask = sub_access off size in
           write32 word (peek word land lnot mask lor ((v lsl shift) land mask))
         end);
    io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
    io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
    reset }

let create ~name ~cfg ~ops = { dname = name; dcfg = cfg; dops = ops; dbdf = None; host = None; spoof = None }

let name t = t.dname
let cfg t = t.dcfg
let ops t = t.dops
let set_ops t ops = t.dops <- ops

let bdf t =
  match t.dbdf with
  | Some b -> b
  | None -> failwith (t.dname ^ ": not attached")

let is_attached t = t.dbdf <> None

let attach_to_host t ~bdf host =
  t.dbdf <- Some bdf;
  t.host <- Some host

let set_spoof_source t s = t.spoof <- s

let source t = match t.spoof with Some s -> s | None -> bdf t

let mastering t = Pci_cfg.command_has t.dcfg Pci_cfg.cmd_bus_master

let dma_read t ~addr ~len =
  match t.host with
  | None -> Error (Bus.Bus_abort { addr })
  | Some h ->
    if not (mastering t) then Error (Bus.Bus_abort { addr })
    else h.dma_read ~source:(source t) ~addr ~len

let dma_write t ~addr ~data =
  match t.host with
  | None -> Error (Bus.Bus_abort { addr })
  | Some h ->
    if not (mastering t) then Error (Bus.Bus_abort { addr })
    else h.dma_write ~source:(source t) ~addr ~data

let send_message t ~addr ~data =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int data);
  dma_write t ~addr ~data:b

let raise_msi t =
  if Pci_cfg.msi_enabled t.dcfg && not (Pci_cfg.msi_masked t.dcfg) then
    send_message t ~addr:(Pci_cfg.msi_address t.dcfg) ~data:(Pci_cfg.msi_data t.dcfg)
  else Ok ()

let raise_msix t ~vector =
  if not (Pci_cfg.msix_enabled t.dcfg) || Pci_cfg.msix_func_masked t.dcfg then Ok ()
  else if Pci_cfg.msix_masked t.dcfg ~vector then begin
    (* Suppressed by the per-vector mask bit: latch pending, as the
       spec's pending-bit array does, so software can see the storm it
       is sitting on. *)
    Pci_cfg.msix_set_pending t.dcfg ~vector true;
    Ok ()
  end
  else
    send_message t ~addr:(Pci_cfg.msix_address t.dcfg ~vector)
      ~data:(Pci_cfg.msix_data t.dcfg ~vector)

let set_msix_mask t ~vector masked =
  let pending = Pci_cfg.msix_pending t.dcfg ~vector in
  Pci_cfg.msix_set_mask t.dcfg ~vector masked;
  if pending && not masked then
    ignore (raise_msix t ~vector : (unit, Bus.fault) result)
