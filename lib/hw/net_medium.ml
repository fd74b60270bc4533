type port = {
  rx : bytes -> unit;
  mutable tx_free_at : int;   (* per-sender line is busy until then *)
}

type t = {
  eng : Engine.t;
  rate_bps : int;
  latency_ns : int;
  mutable ports : port list;
  mutable frames : int;
  mutable bytes : int;
}

let create eng ?(rate_bps = 1_000_000_000) ?(latency_ns = 20_000) () =
  if rate_bps <= 0 then invalid_arg "Net_medium.create: rate must be positive";
  { eng; rate_bps; latency_ns; ports = []; frames = 0; bytes = 0 }

let attach t ~rx =
  let p = { rx; tx_free_at = 0 } in
  t.ports <- t.ports @ [ p ];
  p

let min_frame = 60

let frame_time_ns t ~bytes =
  let bytes = max bytes min_frame in
  (* +24 bytes of preamble/FCS/IFG overhead, like real Ethernet *)
  (bytes + 24) * 8 * 1_000_000_000 / t.rate_bps

let send t port frame =
  let len = Bytes.length frame in
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + len;
  let now = Engine.now t.eng in
  let start = max now port.tx_free_at in
  let done_at = start + frame_time_ns t ~bytes:len in
  port.tx_free_at <- done_at;
  let arrival = done_at - now + t.latency_ns in
  List.iter
    (fun peer ->
       if peer != port then begin
         let copy = Bytes.copy frame in
         ignore
           (Engine.schedule_after t.eng arrival (fun () -> peer.rx copy)
            : Engine.handle)
       end)
    t.ports

let frames_sent t = t.frames
