(** USB function devices that plug into the {!Usb_hci_dev} host controller:
    a HID keyboard (interrupt endpoint) and a mass-storage disk (bulk-only
    transport speaking a small SCSI subset).

    USB devices sit {e behind} the host controller: they never touch the
    PCI fabric themselves, which is why the paper's USB host proxy needs
    zero device-class code — all confinement happens at the HCI. *)

type transfer_result =
  | Done of bytes  (** completed; payload for IN transfers, empty for OUT *)
  | Nak            (** endpoint has nothing (interrupt IN polling) *)
  | Stall

type t

val address : t -> int
val set_address : t -> int -> unit

val control : t -> setup:bytes -> data:bytes -> transfer_result
(** Execute a control transfer.  [setup] is the 8-byte setup packet;
    [data] is the OUT payload if any.  Standard requests handled here:
    GET_DESCRIPTOR (device), SET_ADDRESS, SET_CONFIGURATION. *)

val endpoint_in : t -> ep:int -> len:int -> transfer_result
val endpoint_out : t -> ep:int -> data:bytes -> transfer_result

(** {1 Keyboard} *)

val keyboard : unit -> t
val keyboard_press : t -> key:int -> unit
(** Queue a key-down report on the interrupt endpoint (EP 1 IN).
    Raises [Invalid_argument] if [t] is not a keyboard. *)

val keyboard_pending : t -> int
(** Reports still queued on the interrupt endpoint (test oracle). *)

(** {1 Mass storage} *)

val storage : blocks:int -> t
(** A disk of 512-byte blocks, bulk-only transport on EP 1 OUT / EP 2 IN.
    SCSI subset: TEST UNIT READY, INQUIRY, READ CAPACITY(10), READ(10),
    WRITE(10). *)

val storage_peek : t -> lba:int -> bytes
(** Read a block directly from the backing store (test oracle). *)
