(** Intel HD Audio controller model (snd-hda-intel class).

    One playback stream engine: the driver programs a buffer descriptor
    list (BDL) of DMA buffers; while running, the device consumes samples
    at the configured byte rate, DMA-reading each buffer as the position
    crosses it and raising an MSI per completed entry with IOC set —
    the period interrupts real audio drivers live on.

    A small codec behind the immediate-command mailbox answers a handful
    of verbs (vendor id, power state, volume). *)

module Regs : sig
  val gctl : int
  val intsts : int
  val intctl : int
  (** [icoi] = immediate command output; [icii] = immediate command status
      (bit0 = response valid); [irii] = immediate response input. *)

  val icoi : int
  val icii : int
  val irii : int

  val sd0_ctl : int
  val sd0_sts : int
  val sd0_lpib : int
  val sd0_cbl : int
  val sd0_lvi : int
  val sd0_bdpl : int
  val sd0_bdpu : int

  val gctl_crst : int
  val sdctl_run : int
  val sdctl_ioce : int
  val sdsts_bcis : int
  val intsts_sd0 : int

  val bdl_entry_size : int
  val bdl_ioc : int

  (** Codec verbs *)

  val verb_get_param : int
  val verb_set_volume : int
  val verb_get_volume : int
  val param_vendor_id : int
end

type t

val create : Engine.t -> ?byte_rate:int -> unit -> t
(** [byte_rate] defaults to 192000 B/s (48 kHz stereo 16-bit). *)

val device : t -> Device.t
val bytes_played : t -> int
val buffers_completed : t -> int
val audio_checksum : t -> int
(** Additive checksum of every sample byte the device consumed — lets
    tests prove that the exact PCM data made it through DMA. *)

val volume : t -> int
