type registry_entry = Driver : ('d, 'p) Driver_host.cls * 'd -> registry_entry
type started = Started : 'p Driver_host.gen -> started

let scan_and_start k sp ~registry () =
  let next_uid = ref 2000 in
  let seq = ref 0 in
  let start dev (Driver (cls, drv)) =
    let drv_name, ids = Driver_host.ident cls drv in
    if not (List.mem (dev.Sysfs.vendor, dev.Sysfs.device) ids) then None
    else begin
      let uid = !next_uid in
      incr next_uid;
      incr seq;
      let name = Printf.sprintf "%s.%d" drv_name !seq in
      let result = Driver_host.launch k sp ~uid ~name ~bdf:dev.Sysfs.bdf cls drv in
      Some (dev.Sysfs.bdf, name, Result.map (fun g -> Started g) result)
    end
  in
  List.filter_map (fun dev -> List.find_map (start dev) registry) (Sysfs.entries k.Kernel.sysfs)
