type entry = {
  path : string;
  bdf : Bus.bdf;
  vendor : int;
  device : int;
  class_code : int;
  mutable attrs : (string * string) list;
}

type t = {
  mutable items : entry list;
  mutable files : (string * (unit -> string)) list;  (* virtual read-only nodes *)
}

let create () = { items = []; files = [] }

let register_file t ~path ~read =
  t.files <- (path, read) :: List.remove_assoc path t.files

let read_file t ~path = Option.map (fun read -> read ()) (List.assoc_opt path t.files)

let add_pci_device t ~bdf ~vendor ~device ~class_code =
  let path = Printf.sprintf "/sys/devices/pci0000:00/0000:%s" (Bus.string_of_bdf bdf) in
  let e = { path; bdf; vendor; device; class_code; attrs = [] } in
  t.items <- e :: t.items;
  e

let entries t = List.rev t.items
let find_bdf t bdf = List.find_opt (fun e -> e.bdf = bdf) t.items

let match_ids t ~ids =
  List.filter (fun e -> List.mem (e.vendor, e.device) ids) (entries t)

let set_attr e k v = e.attrs <- (k, v) :: List.remove_assoc k e.attrs
let attr e k = List.assoc_opt k e.attrs
