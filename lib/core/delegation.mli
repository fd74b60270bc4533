(** Device delegation (paper §6, future work): instead of the administrator
    starting each driver by hand, a bus manager scans the PCI bus and starts
    a separate untrusted driver process for every device it has a driver
    for — each under its own UID, so drivers cannot interfere with one
    another even through SUD's own interfaces.  A registry entry pairs a
    driver with its {!Driver_host.cls}, so one scan starts a generation of
    any class. *)

type registry_entry =
  | Driver : ('d, 'p) Driver_host.cls * 'd -> registry_entry
      (** A driver and the class it launches as, e.g.
          [Driver (Driver_host.net (), E1000.driver)]. *)

type started = Started : 'p Driver_host.gen -> started
(** A started generation, whatever its class. *)

val scan_and_start :
  Kernel.t ->
  Safe_pci.t ->
  registry:registry_entry list ->
  unit ->
  (Bus.bdf * string * (started, string) result) list
(** Walk sysfs; for each device whose PCI ids match the first registry
    entry that binds them ({!Driver_host.ident}), allocate a fresh UID
    (from 2000, incrementing) and launch the driver in its class.
    Returns one row per matched device: its BDF, the driver name, and the
    start outcome.  Devices without a registered driver are skipped.
    Must run in a fiber. *)
