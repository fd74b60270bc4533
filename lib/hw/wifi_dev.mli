(** 802.11 wireless NIC model in the style of the iwlagn 5000 series: an
    MMIO register file, firmware-load gate, a command/event mailbox for
    management operations (scan, associate, rate control) and DMA TX/RX
    rings.

    The "air" is a {!Net_medium}; access points are modelled as stations
    on that medium, with the BSS table configured at creation.  Frames
    flow only while associated, which is what exercises the wireless
    proxy's mirrored link state. *)

module Regs : sig
  val ctrl : int
  val int_sts : int
  val int_mask : int
  val fw : int
  val cmd : int
  val cmd_addr : int
  val evq : int
  val txb : int
  val txlen : int
  val txh : int
  val txt : int
  val rxb : int
  val rxlen : int
  val rxh : int
  val rxt : int
  val rate : int
  val bss_count : int
  val bss_table : int

  val ctrl_enable : int
  val fw_magic : int
  val fw_ready : int

  val int_tx : int
  val int_rx : int
  val int_event : int

  (* mailbox command opcodes *)
  val op_scan : int
  val op_assoc : int
  val op_disassoc : int
  val op_set_rate : int

  (* event codes from the event queue *)
  val ev_none : int
  val ev_scan_done : int
  val ev_assoc_done : int
  val ev_disassoc : int
  val ev_bss_changed : int

  val desc_size : int
end

type bss = { bssid : int; ssid : string; signal_dbm : int }

type t

val create :
  Engine.t -> mac:bytes -> medium:Net_medium.t -> bss_list:bss list -> unit -> t

val device : t -> Device.t
val associated : t -> int option
(** BSSID currently associated with, if any. *)

val supported_rates : int array
(** Mb/s values exposed through the rate table registers. *)

val current_rate : t -> int

val roam : t -> bssid:int -> unit
(** Force the firmware to switch BSS, queueing an [ev_bss_changed] event —
    drives the proxy's non-preemptable BSS-change path (paper §3.1.1). *)
