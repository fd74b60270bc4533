(** Device delegation (paper §6, future work): instead of the administrator
    starting each driver by hand, a bus manager scans the PCI bus and starts
    a separate untrusted driver process for every device it has a driver
    for — each under its own UID, so drivers cannot interfere with one
    another even through SUD's own interfaces. *)

type registry_entry =
  | Net of Driver_api.net_driver
  | Wifi of Driver_api.wifi_driver
  | Audio of Driver_api.audio_driver

type started =
  | Started_net of Driver_host.started
  | Started_wifi of Proxy_wifi.t Driver_host.gen
  | Started_audio of Proxy_audio.t Driver_host.gen

val scan_and_start :
  Kernel.t ->
  Safe_pci.t ->
  ?base_uid:int ->
  registry:registry_entry list ->
  unit ->
  (Bus.bdf * string * (started, string) result) list
(** Walk sysfs; for each device matching a registry entry, allocate a fresh
    UID (from [base_uid], default 2000, incrementing) and start the driver.
    Returns one row per matched device: its BDF, the driver name, and the
    start outcome.  Devices without a registered driver are skipped.
    Must run in a fiber. *)

val name_of_entry : registry_entry -> string
val ids_of_entry : registry_entry -> (int * int) list
