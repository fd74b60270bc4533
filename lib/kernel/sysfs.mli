(** A minimal sysfs: the device registry SUD-UML scans to find a PCI
    device matching a driver's ID table (paper §4.1), plus string
    attributes for tooling. *)

type t

type entry = {
  path : string;                       (** "/sys/devices/pci0000:00/..." *)
  bdf : Bus.bdf;
  vendor : int;
  device : int;
  class_code : int;
  mutable attrs : (string * string) list;
}

val create : unit -> t

val add_pci_device : t -> bdf:Bus.bdf -> vendor:int -> device:int -> class_code:int -> entry

val entries : t -> entry list
val find_bdf : t -> Bus.bdf -> entry option

val match_ids : t -> ids:(int * int) list -> entry list
(** Devices whose (vendor, device) appears in a driver's ID table. *)

val set_attr : entry -> string -> string -> unit
val attr : entry -> string -> string option

(** {1 Virtual files}

    Read-only nodes whose contents are computed on every read — the shape
    of /sys/kernel/* introspection files.  [Kernel.boot] registers
    [/sys/kernel/sud_metrics] (human table) and
    [/sys/kernel/sud_metrics.json] here. *)

val register_file : t -> path:string -> read:(unit -> string) -> unit
(** Re-registering a path replaces its reader. *)

val read_file : t -> path:string -> string option
