type t = {
  chan : Uchan.t;
  hung : unit -> bool;
  quiesce : unit -> unit;
  resume : unit -> unit;
}

(* What every proxy answers the same way, at the end of its downcall
   handler: the kernel-side twin of [Sud_uml.serve_queues]. *)
let downcall k grant ~cls ~name m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.down_irq_ack then Safe_pci.irq_ack ~queue:(Msg.arg m 0) grant
  else if kind = Proxy_proto.down_printk then
    Klog.printk k.Kernel.klog Klog.Info "%s: %s" name (Bytes.to_string m.Msg.payload)
  else
    (* Unknown downcalls from an untrusted driver are logged, not trusted. *)
    Klog.printk k.Kernel.klog Klog.Warn "sud-%s(%s): unexpected downcall %d" cls name kind;
  None

(* The shared heartbeat: every SUD driver's queue-0 service loop answers
   [up_ping] inline (any reply — even an error reply from a class that
   does not know the opcode — proves the loop is alive), so one
   implementation serves every proxy class. *)
let heartbeat t =
  match Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_ping ()) with
  | Ok _ -> Ok ()
  | Error Uchan.Hung -> Error "heartbeat missed"
  | Error Uchan.Closed -> Error "uchan closed"
  | Error Uchan.Interrupted -> Ok ()   (* non-fatal signal; not the driver's fault *)
