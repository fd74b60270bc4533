(** RPC opcodes shared by the proxy drivers and SUD-UML — the concrete
    instance of the paper's Figure 7 upcall/downcall table.

    Upcalls are kernel→driver; downcalls are driver→kernel.  "sync"
    operations block for a reply and are interruptible; everything else
    is asynchronous and batched. *)

(* Every opcode is declared once, with its name, through [op]; {!opcodes}
   is the resulting table, which the full-protocol listing under Figure 7
   prints. *)
let declared = ref []

let op n name =
  declared := (n, name) :: !declared;
  n

(* ---- upcalls ---- *)

let up_net_open = op 1 "net_open"    (* sync *)
let up_net_stop = op 2 "net_stop"    (* sync *)
let up_net_xmit = op 3 "net_xmit"    (* async; args [buf_id; len] *)
let up_net_ioctl = op 4 "net_ioctl"  (* sync; args [cmd; arg] *)
let up_interrupt = op 5 "interrupt"  (* async *)
let up_ping = op 6 "ping"            (* sync; supervisor heartbeat, empty reply *)

let up_wifi_scan = op 16 "wifi_scan"          (* sync (trigger; completion is an event) *)
let up_wifi_assoc = op 17 "wifi_assoc"        (* sync; args [bssid] *)
let up_wifi_set_rate = op 18 "wifi_set_rate"  (* async — queued from non-preemptable context *)

let up_audio_start = op 32 "audio_start"      (* sync *)
let up_audio_stop = op 33 "audio_stop"        (* sync *)
let up_audio_write = op 34 "audio_write"      (* async; args [buf_id; len] *)
let up_audio_set_vol = op 35 "audio_set_vol"  (* async; args [vol] *)
let up_audio_get_vol = op 36 "audio_get_vol"  (* sync *)

let up_blk_read = op 48 "blk_read"    (* sync; args [lba; count; buf_id] *)
let up_blk_write = op 49 "blk_write"  (* sync; args [lba; count; buf_id] *)

(* The sud-blk asynchronous submission path (NVMe-style queue pairs).
   [tag] is the proxy's idempotency tag — monotonically increasing per
   device, the identity a request keeps across driver restarts so
   replay can re-issue it without double-applying.  The buffer id is
   encoded +1 so 0 means "no shared buffer" (flush). *)
let up_blk_submit = op 52 "blk_submit"  (* async; args [tag; op; lba; count; buf_id+1] *)

(* blk ops carried in up_blk_submit's [op] argument. *)
let blk_op_read = 0
let blk_op_write = 1
let blk_op_flush = 2
let blk_op_fua = 4           (* flag bit OR'd onto a write *)

(* ---- downcalls ---- *)

let down_net_register = op 100 "net_register"  (* sync; payload = MAC *)
let down_netif_rx = op 101 "netif_rx"          (* async; args [iova; len] *)
let down_tx_free = op 102 "tx_free"            (* async; args [buf_id] *)
let down_tx_done = op 103 "tx_done"            (* async *)
let down_carrier = op 104 "carrier"            (* async; args [0|1] *)
let down_irq_ack = op 105 "irq_ack"            (* async *)

let down_wifi_scan_done = op 110 "wifi_scan_done"      (* async; payload = bssid list (u16s) *)
let down_wifi_bss_changed = op 111 "wifi_bss_changed"  (* async; args [bssid] *)
let down_audio_period = op 112 "audio_period"          (* async *)
let down_blk_register = op 113 "blk_register"          (* sync; args [capacity] *)
let down_input_key = op 114 "input_key"                (* async; args [keycode] *)
let down_wifi_rates = op 115 "wifi_rates"              (* async; payload = rates, one u16 each *)
let down_audio_register = op 116 "audio_register"      (* sync *)
let down_blkdev_register = op 117 "blkdev_register"    (* sync; args [capacity; nr_queues] *)
let down_blk_complete = op 118 "blk_complete"          (* async, batched; args [tag; status] *)
let down_printk = op 120 "printk"                      (* async; payload = message *)

let opcodes = List.rev !declared

(* ---- sync replies ----

   A sync reply echoes its request's seq and kind, with a status word in
   arg 0: 0 then the results on success, 1 and the driver's error text as
   the payload on failure. *)

let ok m results = Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ~args:(0 :: results) ()

let err m e =
  Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ~args:[ 1 ] ~payload:(Bytes.of_string e) ()

(* A sync upcall's outcome as the proxy reports it: the reply, the
   driver's error text, or what became of the call. *)
let status = function
  | Ok r when Msg.arg r 0 = 0 -> Ok r
  | Ok r -> Error (Bytes.to_string r.Msg.payload)
  | Error Uchan.Hung -> Error "driver hung"
  | Error Uchan.Interrupted -> Error "interrupted"
  | Error Uchan.Closed -> Error "driver is gone"

(* Kind vocabulary for the uchan conformance DFA, covering the
   driver->kernel (downcall) direction the kernel adjudicates.  The
   registration syncs gate the data plane; notification-ish downcalls a
   driver legitimately sends while still probing (printk, carrier, irq
   acks, wifi rate tables) are Control — serve_wifi, for one, ships its
   rate table before the registration handshake.  Anything outside the
   vocabulary is out of protocol. *)
let classify_downcall = function
  | 100 | 113 | 116 | 117 -> Conformance.Register
  | 101 | 102 | 103 | 118 -> Conformance.Data
  | 104 | 105 | 110 | 111 | 112 | 114 | 115 | 120 -> Conformance.Control
  | _ -> Conformance.Unknown

let conformance_profile =
  { Conformance.p_name = "proxy"; p_classify = classify_downcall }

(** Figure 7's sample table: (name, direction, description). *)
let figure7_sample =
  [ ("ioctl", "upcall", "Request that the driver perform a device-specific ioctl.");
    ("interrupt", "upcall", "Invoke the SUD-UML driver interrupt handler.");
    ("net_open", "upcall", "Prepare a network device for operation.");
    ("bss_change", "upcall", "Notify an 802.11 device that the BSS has changed.");
    ("interrupt_ack", "downcall", "Request that SUD unmask the device interrupt line.");
    ("request_region", "downcall", "Add IO-space ports to the driver's IO permission bitmask.");
    ("netif_rx", "downcall", "Submit a received packet to the kernel's network stack.");
    ("pci_find_capability", "downcall", "Checks if device supports a particular capability.") ]
