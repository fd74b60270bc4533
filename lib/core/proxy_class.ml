module type S = sig
  type t

  val chan : t -> Uchan.t
  val hung : t -> bool
  val quiesce : t -> unit
  val resume : t -> unit
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let chan (Instance ((module P), x)) = P.chan x
let hung (Instance ((module P), x)) = P.hung x
let quiesce (Instance ((module P), x)) = P.quiesce x
let resume (Instance ((module P), x)) = P.resume x

(* The shared heartbeat: every SUD driver's queue-0 service loop answers
   [up_ping] inline (any reply — even an error reply from a class that
   does not know the opcode — proves the loop is alive), so one
   implementation serves every proxy class. *)
let heartbeat inst =
  match
    Uchan.call (chan inst)
      (Msg.make ~kind:Proxy_proto.up_ping ())
  with
  | Ok _ -> Ok ()
  | Error Uchan.Hung -> Error "heartbeat missed"
  | Error Uchan.Closed -> Error "uchan closed"
  | Error Uchan.Interrupted -> Ok ()   (* non-fatal signal; not the driver's fault *)
