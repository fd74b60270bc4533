type t = {
  chan : Uchan.t;
  hung : unit -> bool;
  quiesce : unit -> unit;
  resume : unit -> unit;
}

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
