type t = {
  k : Kernel.t;
  chan : Uchan.t;
  pnet : Proxy_net.t;
  (* Mirrored shared state (paper §3.1.1/§3.3): owned by the kernel copy,
     written by driver downcalls, read locally without upcalls. *)
  mutable rates : int list;
  mutable bss : int option;
  mutable scan_results : int list option;
  scan_wait : Sync.Waitq.t;
}

let decode_u16s payload =
  let n = Bytes.length payload / 2 in
  List.init n (fun i -> Bytes.get_uint16_le payload (2 * i))

let handle_downcall t ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.down_wifi_rates then begin
    t.rates <- decode_u16s m.Msg.payload;
    None
  end
  else if kind = Proxy_proto.down_wifi_scan_done then begin
    t.scan_results <- Some (decode_u16s m.Msg.payload);
    ignore (Sync.Waitq.broadcast t.scan_wait : int);
    None
  end
  else if kind = Proxy_proto.down_wifi_bss_changed then begin
    t.bss <- Some (Msg.arg m 0);
    None
  end
  else Proxy_net.handle_downcall t.pnet ~queue m

let create k ~chan ~grant ~pool ~name ?defensive_copy () =
  let pnet = Proxy_net.create k ~chan ~grant ~pool ~name ?defensive_copy () in
  let t =
    { k; chan; pnet; rates = []; bss = None; scan_results = None; scan_wait = Sync.Waitq.create () }
  in
  (* Replace the net handler with the chained wireless one. *)
  Uchan.set_downcall_handler chan (fun ~queue m -> handle_downcall t ~queue m);
  t

let net t = t.pnet
let netdev t = Proxy_net.netdev t.pnet

let scan t =
  t.scan_results <- None;
  match Proxy_proto.status (Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_wifi_scan ())) with
  | Error e -> Error e
  | Ok _ ->
    (* The firmware scans asynchronously; wait for the completion event. *)
    (match
       Sync.Waitq.await t.k.Kernel.eng t.scan_wait ~timeout_ns:50_000_000 (fun () ->
           t.scan_results <> None)
     with
     | Fiber.Interrupted -> Error "interrupted"
     | Fiber.Normal | Fiber.Timeout -> Option.to_result ~none:"scan timed out" t.scan_results)

let associate t ~bssid =
  Uchan.call t.chan (Msg.make ~kind:Proxy_proto.up_wifi_assoc ~args:[ bssid ] ())
  |> Proxy_proto.status |> Result.map ignore

let bitrates t = t.rates

let set_rate t idx =
  (* Queued asynchronously: callable while non-preemptable (§3.1.1). *)
  ignore
    (Uchan.post_nonblock t.chan
       (Msg.make ~kind:Proxy_proto.up_wifi_set_rate ~args:[ idx ] ())
     : bool)

let current_bss t = t.bss

(* The wireless lifecycle is the Ethernet one: same channel, same gate. *)
let instance t = Proxy_net.instance t.pnet
