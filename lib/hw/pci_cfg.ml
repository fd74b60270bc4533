type bar_kind = Mem of { size : int } | Io of { size : int }

(* One MSI-X table entry: message address/data plus the per-vector mask
   and pending bits.  The table lives beside the register file rather
   than inside a BAR — the layout (16 bytes per entry) is modeled, the
   backing store is not. *)
type msix_entry = {
  mutable mx_addr : int;
  mutable mx_data : int;
  mutable mx_masked : bool;
  mutable mx_pending : bool;
}

type t = {
  space : bytes;                 (* 256-byte register file *)
  bars : bar_kind option array;
  sizing : bool array;           (* BAR is in sizing mode (all-1s written) *)
  mutable msi_off : int;         (* 0 = no MSI capability *)
  mutable msix_off : int;        (* 0 = no MSI-X capability *)
  mutable msix_table : msix_entry array;
}

let vendor_id = 0x00
let device_id = 0x02
let command = 0x04
let status = 0x06
let class_code = 0x09
let cache_line = 0x0C
let latency_timer = 0x0D
let bar0 = 0x10
let cap_ptr = 0x34

let cmd_io_enable = 0x0001
let cmd_mem_enable = 0x0002
let cmd_bus_master = 0x0004
let cmd_intx_disable = 0x0400

let msi_cap_id = 0x05
let msix_cap_id = 0x11
let status_cap_list = 0x10

(* MSI-X message control (cap +2): bits 0-10 = table size - 1,
   bit 14 = function mask, bit 15 = MSI-X enable. *)
let msix_ctrl = 2
let msix_ctrl_enable = 0x8000
let msix_ctrl_func_mask = 0x4000
let msix_max_vectors = 32

(* MSI capability layout (32-bit with per-vector masking):
   +0 cap id, +1 next ptr, +2 message control, +4 address, +8 data,
   +12 mask bits.  Control bit 0 = enable; mask register bit 0 masks the
   single vector. *)
let msi_ctrl = 2
let msi_addr = 4
let msi_data_off = 8
let msi_mask_off = 12

let raw_read8 t off = Char.code (Bytes.get t.space off)
let raw_write8 t off v = Bytes.set t.space off (Char.chr (v land 0xff))

let raw_read t off size =
  match size with
  | 1 -> raw_read8 t off
  | 2 -> raw_read8 t off lor (raw_read8 t (off + 1) lsl 8)
  | 4 ->
    raw_read8 t off
    lor (raw_read8 t (off + 1) lsl 8)
    lor (raw_read8 t (off + 2) lsl 16)
    lor (raw_read8 t (off + 3) lsl 24)
  | _ -> invalid_arg "Pci_cfg: access size must be 1, 2 or 4"

let raw_write t off size v =
  match size with
  | 1 -> raw_write8 t off v
  | 2 ->
    raw_write8 t off v;
    raw_write8 t (off + 1) (v lsr 8)
  | 4 ->
    raw_write8 t off v;
    raw_write8 t (off + 1) (v lsr 8);
    raw_write8 t (off + 2) (v lsr 16);
    raw_write8 t (off + 3) (v lsr 24)
  | _ -> invalid_arg "Pci_cfg: access size must be 1, 2 or 4"

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~vendor ~device ?(class_code = 0x020000) ~bars () =
  if Array.length bars > 6 then invalid_arg "Pci_cfg.create: at most 6 BARs";
  Array.iter
    (function
      | Some (Mem { size }) when not (is_pow2 size && size >= Bus.page_size) ->
        invalid_arg "Pci_cfg.create: memory BAR size must be a power of two >= one page"
      | Some (Io { size }) when not (is_pow2 size && size >= 4) ->
        invalid_arg "Pci_cfg.create: IO BAR size must be a power of two >= 4"
      | Some (Mem _) | Some (Io _) | None -> ())
    bars;
  let full = Array.make 6 None in
  Array.blit bars 0 full 0 (Array.length bars);
  let t =
    { space = Bytes.make 256 '\000';
      bars = full;
      sizing = Array.make 6 false;
      msi_off = 0;
      msix_off = 0;
      msix_table = [||] }
  in
  raw_write t vendor_id 2 vendor;
  raw_write t device_id 2 device;
  raw_write8 t 0x08 1;                       (* revision ID *)
  raw_write8 t 0x09 (class_code land 0xff);
  raw_write t 0x0A 2 (class_code lsr 8);
  t

let bar_off n = bar0 + (4 * n)

let bar_flags = function
  | Mem _ -> 0x0           (* 32-bit non-prefetchable memory *)
  | Io _ -> 0x1

let bar_size = function Mem { size } -> size | Io { size } -> size

let bar_kind t n = if n < 0 || n > 5 then None else t.bars.(n)

let bar_base t n =
  match t.bars.(n) with
  | None -> 0
  | Some kind -> raw_read t (bar_off n) 4 land lnot (bar_size kind - 1)

let set_bar_base t n base =
  match t.bars.(n) with
  | None -> invalid_arg "Pci_cfg.set_bar_base: no such BAR"
  | Some kind ->
    if base land (bar_size kind - 1) <> 0 then
      invalid_arg "Pci_cfg.set_bar_base: base not size-aligned";
    t.sizing.(n) <- false;
    raw_write t (bar_off n) 4 (base lor bar_flags kind)

let command_has t bit = raw_read t command 2 land bit <> 0

let read t ~off ~size =
  (* BAR sizing protocol: after all-1s is written, a read returns the size
     mask with the flag bits. *)
  let in_bar n = off = bar_off n && size = 4 in
  let rec check n =
    if n > 5 then raw_read t off size
    else
      match t.bars.(n) with
      | Some kind when in_bar n && t.sizing.(n) ->
        lnot (bar_size kind - 1) land 0xFFFFFFFF lor bar_flags kind
      | Some _ | None -> check (n + 1)
  in
  check 0

let write t ~off ~size v =
  let rec bar_hit n =
    if n > 5 then None
    else
      match t.bars.(n) with
      | Some kind when off = bar_off n && size = 4 -> Some (n, kind)
      | Some _ | None -> bar_hit (n + 1)
  in
  match bar_hit 0 with
  | Some (n, kind) ->
    if v land 0xFFFFFFFF = 0xFFFFFFFF then t.sizing.(n) <- true
    else begin
      t.sizing.(n) <- false;
      raw_write t off size (v land lnot (bar_size kind - 1) lor bar_flags kind)
    end
  | None -> raw_write t off size v

(* Prepend a capability header at [off], linking to the current list head,
   and make it the new head. *)
let link_capability t ~off ~id =
  let head = if raw_read t status 2 land status_cap_list <> 0 then raw_read8 t cap_ptr else 0 in
  raw_write8 t cap_ptr off;
  raw_write t status 2 (raw_read t status 2 lor status_cap_list);
  raw_write8 t off id;
  raw_write8 t (off + 1) head

let add_msi_capability t =
  if t.msi_off <> 0 then invalid_arg "Pci_cfg.add_msi_capability: already present";
  (* Place the capability at 0x50, a conventional spot. *)
  let off = 0x50 in
  link_capability t ~off ~id:msi_cap_id;
  raw_write t (off + msi_ctrl) 2 0x0100;  (* per-vector masking capable *)
  t.msi_off <- off

let add_msix_capability t ~vectors =
  if t.msix_off <> 0 then invalid_arg "Pci_cfg.add_msix_capability: already present";
  if vectors <= 0 || vectors > msix_max_vectors then
    invalid_arg "Pci_cfg.add_msix_capability: vector count out of range";
  let off = 0x60 in
  link_capability t ~off ~id:msix_cap_id;
  raw_write t (off + msix_ctrl) 2 (vectors - 1);   (* table size, enable clear *)
  (* Per spec, every vector comes up masked; the kernel unmasks as it
     programs each entry. *)
  t.msix_table <-
    Array.init vectors (fun _ ->
        { mx_addr = 0; mx_data = 0; mx_masked = true; mx_pending = false });
  t.msix_off <- off

let find_capability t id =
  if raw_read t status 2 land status_cap_list = 0 then None
  else begin
    let rec walk off seen =
      if off = 0 || seen > 48 then None
      else if raw_read8 t off = id then Some off
      else walk (raw_read8 t (off + 1)) (seen + 1)
    in
    walk (raw_read8 t cap_ptr) 0
  end

let msi_field t f size =
  if t.msi_off = 0 then 0 else raw_read t (t.msi_off + f) size

let msi_enabled t = t.msi_off <> 0 && msi_field t msi_ctrl 2 land 1 <> 0
let msi_masked t = t.msi_off <> 0 && msi_field t msi_mask_off 4 land 1 <> 0
let msi_address t = msi_field t msi_addr 4
let msi_data t = msi_field t msi_data_off 4

let msi_configure t ~address ~data =
  if t.msi_off = 0 then invalid_arg "Pci_cfg.msi_configure: no MSI capability";
  raw_write t (t.msi_off + msi_addr) 4 address;
  raw_write t (t.msi_off + msi_data_off) 4 data;
  raw_write t (t.msi_off + msi_ctrl) 2 (msi_field t msi_ctrl 2 lor 1)

let msi_set_mask t masked =
  if t.msi_off = 0 then invalid_arg "Pci_cfg.msi_set_mask: no MSI capability";
  let cur = msi_field t msi_mask_off 4 in
  raw_write t (t.msi_off + msi_mask_off) 4 (if masked then cur lor 1 else cur land lnot 1)

(* ---- MSI-X ---- *)

let msix_table_size t = Array.length t.msix_table

let msix_entry t ~vector what =
  if vector < 0 || vector >= Array.length t.msix_table then
    invalid_arg (Printf.sprintf "Pci_cfg.%s: no MSI-X vector %d" what vector);
  t.msix_table.(vector)

let msix_enabled t =
  t.msix_off <> 0 && raw_read t (t.msix_off + msix_ctrl) 2 land msix_ctrl_enable <> 0

let msix_set_enabled t on =
  if t.msix_off = 0 then invalid_arg "Pci_cfg.msix_set_enabled: no MSI-X capability";
  let cur = raw_read t (t.msix_off + msix_ctrl) 2 in
  raw_write t (t.msix_off + msix_ctrl) 2
    (if on then cur lor msix_ctrl_enable else cur land lnot msix_ctrl_enable)

let msix_func_masked t =
  t.msix_off <> 0 && raw_read t (t.msix_off + msix_ctrl) 2 land msix_ctrl_func_mask <> 0

let msix_configure t ~vector ~address ~data =
  let e = msix_entry t ~vector "msix_configure" in
  e.mx_addr <- address;
  e.mx_data <- data;
  e.mx_masked <- false

let msix_address t ~vector = (msix_entry t ~vector "msix_address").mx_addr
let msix_data t ~vector = (msix_entry t ~vector "msix_data").mx_data

let msix_set_mask t ~vector masked =
  let e = msix_entry t ~vector "msix_set_mask" in
  e.mx_masked <- masked;
  if not masked then e.mx_pending <- false

let msix_masked t ~vector = (msix_entry t ~vector "msix_masked").mx_masked
let msix_pending t ~vector = (msix_entry t ~vector "msix_pending").mx_pending

let msix_set_pending t ~vector p =
  (msix_entry t ~vector "msix_set_pending").mx_pending <- p
