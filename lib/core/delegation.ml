type registry_entry =
  | Net of Driver_api.net_driver
  | Wifi of Driver_api.wifi_driver
  | Audio of Driver_api.audio_driver

type started =
  | Started_net of Driver_host.started
  | Started_wifi of Proxy_wifi.t Driver_host.gen
  | Started_audio of Proxy_audio.t Driver_host.gen

let name_of_entry = function
  | Net d -> d.Driver_api.nd_name
  | Wifi d -> d.Driver_api.wd_name
  | Audio d -> d.Driver_api.ad_name

let ids_of_entry = function
  | Net d -> d.Driver_api.nd_ids
  | Wifi d -> d.Driver_api.wd_ids
  | Audio d -> d.Driver_api.ad_ids

let scan_and_start k sp ~registry () =
  let next_uid = ref 2000 in
  let seq = ref 0 in
  List.filter_map
    (fun dev ->
       match
         List.find_opt
           (fun entry -> List.mem (dev.Sysfs.vendor, dev.Sysfs.device) (ids_of_entry entry))
           registry
       with
       | None -> None
       | Some entry ->
         let uid = !next_uid in
         incr next_uid;
         incr seq;
         let name = Printf.sprintf "%s.%d" (name_of_entry entry) !seq in
         let result =
           match entry with
           | Net d ->
             Result.map
               (fun s -> Started_net s)
               (Driver_host.launch k sp ~uid ~name ~bdf:dev.Sysfs.bdf
                  (Driver_host.net ()) d)
           | Wifi d ->
             Result.map
               (fun s -> Started_wifi s)
               (Driver_host.launch k sp ~uid ~name ~bdf:dev.Sysfs.bdf Driver_host.wifi d)
           | Audio d ->
             Result.map
               (fun s -> Started_audio s)
               (Driver_host.launch k sp ~uid ~name ~bdf:dev.Sysfs.bdf Driver_host.audio d)
         in
         Some (dev.Sysfs.bdf, name, result))
    (Sysfs.entries k.Kernel.sysfs)
