(* A pre-forked generation, parked before attach: the process and its
   epoch-stamped rings, recorded in its table.  Everything
   device-facing waits for [activate] (see the interface). *)
type warm = {
  w_k : Kernel.t;
  w_sp : Safe_pci.t;
  w_bdf : Bus.bdf;
  w_uid : int;
  w_name : string;
  w_proc : Process.t;
  w_chan : Uchan.t;
  w_queues : int;
  w_caps : Quota.caps;
  w_epoch : int;
  w_hang_timeout_ns : int option;
}

(* An activated generation: the parked one it was activated from, and
   what activation added. *)
type 'p gen = {
  g_warm : warm;
  g_grant : Safe_pci.grant;
  g_proxy : 'p;
  g_class : Proxy_class.t;
  g_uml : Sud_uml.t;
  g_netdev : Netdev.t option;
  g_activate : warm -> ('p gen, string) result;  (* with this one's class and driver *)
}

type started = Proxy_net.t gen

type (_, _) cls =
  | Net : { defensive_copy : bool; adopt : Proxy_net.persist option }
      -> (Driver_api.net_driver, Proxy_net.t) cls
  | Blk : { adopt : Proxy_blk.persist option } -> (Driver_api.blk_driver, Proxy_blk.t) cls
  | Wifi : (Driver_api.wifi_driver, Proxy_wifi.t) cls
  | Audio : (Driver_api.audio_driver, Proxy_audio.t) cls
  | Usb : (Driver_api.usb_host_driver, Proxy_usb.t) cls

let net ?(defensive_copy = true) ?adopt () = Net { defensive_copy; adopt }

let blk ?adopt () = Blk { adopt }
let wifi = Wifi
let audio = Audio
let usb = Usb

(* What a class contributes to the one bring-up sequence. *)
type ('d, 'p) desc = {
  d_name : string;
  d_ident : 'd -> string * (int * int) list;  (* driver name, PCI ids *)
  d_pool : int * int;  (* DMA pool: buffers, buffer size *)
  d_proxy :
    Kernel.t -> chan:Uchan.t -> grant:Safe_pci.grant -> pool:Bufpool.t -> name:string -> 'p;
  d_serve : Sud_uml.t -> 'd -> unit;
  d_ready : 'p -> timeout_ns:int -> bool;
  d_netdev : 'p -> Netdev.t option;
  d_exit : 'p -> unit;  (* on driver death, after the channel closed *)
  d_instance : 'p -> Proxy_class.t;
}

let net_pool = (128, 2048)

(* Block buffers must hold a fully merged request (64 sectors); fewer,
   bigger buffers than the net pool. *)
let blk_pool = (64, 32768)

let desc : type d p. (d, p) cls -> (d, p) desc = function
  | Net { defensive_copy; adopt } ->
    { d_name = "net";
      d_ident = (fun d -> (d.Driver_api.nd_name, d.nd_ids));
      d_pool = net_pool;
      d_proxy =
        (fun k ~chan ~grant ~pool ~name ->
           Proxy_net.create k ~chan ~grant ~pool ~name ~defensive_copy ?adopt ());
      d_serve = Sud_uml.serve_net;
      d_ready = Proxy_net.wait_registered;
      d_netdev = Proxy_net.netdev;
      (* An adopted netdev outlives its driver: the persist record keeps
         it for the next generation, parked by the proxy's quiesce. *)
      d_exit = (fun p -> if Option.is_none adopt then Proxy_net.unregister p);
      d_instance = Proxy_net.instance }
  | Blk { adopt } ->
    { d_name = "blk";
      d_ident = (fun d -> (d.Driver_api.bd_name, d.bd_ids));
      d_pool = blk_pool;
      d_proxy =
        (fun k ~chan ~grant ~pool ~name -> Proxy_blk.create k ~chan ~grant ~pool ~name ?adopt ());
      d_serve = Sud_uml.serve_blk;
      d_ready = Proxy_blk.wait_registered;
      d_netdev = (fun _ -> None);
      (* The blkdev (cache, staging, retention in the persist record)
         survives the driver's death; new requests park in staging until
         a fresh generation resumes. *)
      d_exit = Proxy_blk.quiesce;
      d_instance = Proxy_blk.instance }
  | Wifi ->
    { d_name = "wifi";
      d_ident = (fun d -> (d.Driver_api.wd_name, d.wd_ids));
      d_pool = net_pool;
      d_proxy = (fun k ~chan ~grant ~pool ~name -> Proxy_wifi.create k ~chan ~grant ~pool ~name ());
      d_serve = Sud_uml.serve_wifi;
      d_ready = (fun p -> Proxy_net.wait_registered (Proxy_wifi.net p));
      d_netdev = Proxy_wifi.netdev;
      d_exit = (fun p -> Proxy_net.unregister (Proxy_wifi.net p));
      d_instance = Proxy_wifi.instance }
  | Audio ->
    { d_name = "audio";
      d_ident = (fun d -> (d.Driver_api.ad_name, d.ad_ids));
      d_pool = net_pool;
      d_proxy = (fun k ~chan ~grant ~pool ~name -> Proxy_audio.create k ~chan ~grant ~pool ~name ());
      d_serve = Sud_uml.serve_audio;
      d_ready = Proxy_audio.wait_ready;
      d_netdev = (fun _ -> None);
      d_exit = ignore;
      d_instance = Proxy_audio.instance }
  | Usb ->
    { d_name = "usb";
      d_ident = (fun d -> (d.Driver_api.ud_name, d.ud_ids));
      d_pool = net_pool;
      d_proxy = (fun k ~chan ~grant ~pool ~name -> Proxy_usb.create k ~chan ~grant ~pool ~name ());
      d_serve = Sud_uml.serve_usb;
      (* Block and input surfaces appear as the driver enumerates its bus
         ([Proxy_usb.wait_block]); there is no single registration. *)
      d_ready = (fun _ ~timeout_ns:_ -> true);
      d_netdev = (fun _ -> None);
      d_exit = ignore;
      d_instance = Proxy_usb.instance }

let ident cls drv = (desc cls).d_ident drv

(* ---- the bring-up steps ---- *)

let trace name attrs =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name ~attrs ()
       : int)

(* The process and its capability table: everything later steps acquire
   for the generation is recorded there, and the process's death revokes
   it newest first. *)
let spawn k sp ?quota ~uid ~name ~bdf () =
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  let proc = Process.spawn k.Kernel.procs ~name ~uid in
  (proc, Quota.table quota proc)

let open_pool sp ~caps bdf ~proc (count, buf_size) =
  match Safe_pci.open_device sp ~caps bdf ~proc with
  | Error e -> Error ("open device: " ^ e)
  | Ok grant ->
    (match Safe_pci.alloc_dma grant ~bytes:(Bufpool.region_size ~count ~buf_size) () with
     | Error e -> Error ("shared pool: " ^ e)
     | Ok region ->
       Ok
         ( grant,
           Bufpool.create
             ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
             ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
             ~base_addr:region.Driver_api.dma_addr ~count ~buf_size ))

let clamp_queues q = max 1 (min q Uchan.max_queues)

(* Quota negotiation: clamp the queue count until the ring footprint
   fits the driver's uchan budget, then record exactly the negotiated
   footprint in the generation's table, whose revocation closes the
   channel.  Every driver-side kernel entry draws a notification token. *)
let rings k ?hang_timeout_ns ~caps ~epoch ~name ~queues () =
  let slots = 256 in
  let quota = Quota.ledger caps in
  let queues =
    match quota with Some q -> Quota.negotiate_queues q ~slots ~queues | None -> queues
  in
  let footprint = Quota.Rings { bytes = Quota.ring_bytes ~slots ~queues } in
  match Quota.admit caps footprint with
  | Error e -> Error ("uchan rings: " ^ e)
  | Ok () ->
    let chan =
      Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
        ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
    in
    Quota.record caps footprint ~revoke:(fun () -> Uchan.close chan);
    (match quota with
     | Some q -> Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue))
     | None -> ());
    Ok (chan, queues)

(* Proxy, driver main loop, and the wait for the driver to register.
   The class exit action runs at driver death, before the table's
   revocation (exit hooks run last-registered-first, and [spawn]
   registered the table's first). *)
let attach d k ~proc ~grant ~pool ~chan ~name drv =
  let proxy = d.d_proxy k ~chan ~grant ~pool ~name in
  let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
  Process.on_exit proc (fun () -> d.d_exit proxy);
  ignore
    (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () -> d.d_serve uml drv) : Fiber.t);
  if d.d_ready proxy ~timeout_ns:100_000_000 then Ok (proxy, uml)
  else Error ("driver did not register with the " ^ d.d_name ^ " proxy")

(* A failing step kills the half-built generation; its table's
   revocation undoes what the earlier steps acquired. *)
let or_kill proc = function
  | Ok _ as ok -> ok
  | Error _ as e ->
    Process.kill proc;
    e

let ( let* ) = Result.bind

(* ---- the one bring-up sequence: prefork, then activate ---- *)

let prefork k sp ~uid ?hang_timeout_ns ~queues ?quota ~epoch ~name ~bdf () =
  trace "prefork" [ "driver", name; "bdf", Bus.string_of_bdf bdf ];
  let proc, caps = spawn k sp ?quota ~uid ~name ~bdf () in
  let* chan, queues =
    or_kill proc (rings k ?hang_timeout_ns ~caps ~epoch ~name ~queues:(clamp_queues queues) ())
  in
  Ok
    { w_k = k;
      w_sp = sp;
      w_bdf = bdf;
      w_uid = uid;
      w_name = name;
      w_proc = proc;
      w_chan = chan;
      w_queues = queues;
      w_caps = caps;
      w_epoch = epoch;
      w_hang_timeout_ns = hang_timeout_ns }

let warm_proc w = w.w_proc
let warm_chan w = w.w_chan
let discard_warm w = Process.kill w.w_proc

let rec activate w cls drv =
  let d = desc cls in
  let bdf = w.w_bdf and name = w.w_name and proc = w.w_proc in
  trace "activate" [ "driver", name; "bdf", Bus.string_of_bdf bdf; "class", d.d_name ];
  let* grant, pool = or_kill proc (open_pool w.w_sp ~caps:w.w_caps bdf ~proc d.d_pool) in
  let* proxy, uml = or_kill proc (attach d w.w_k ~proc ~grant ~pool ~chan:w.w_chan ~name drv) in
  Ok
    { g_warm = w;
      g_grant = grant;
      g_proxy = proxy;
      g_class = d.d_instance proxy;
      g_uml = uml;
      g_netdev = d.d_netdev proxy;
      g_activate = (fun w -> activate w cls drv) }

let launch k sp ?(uid = 1000) ?name ?bdf ?hang_timeout_ns ?queues ?quota ?(epoch = 0) cls drv =
  let drv_name, ids = ident cls drv in
  let name = Option.value ~default:drv_name name in
  let* bdf =
    match bdf with
    | Some b -> Ok b
    | None ->
      (match Sysfs.match_ids k.Kernel.sysfs ~ids with
       | [] -> Error ("no matching PCI device in sysfs for " ^ name)
       | e :: _ -> Ok e.Sysfs.bdf)
  in
  (* One uchan ring pair per deliverable vector: the device's MSI-X
     table sizes the datapath unless the caller narrows it. *)
  let queues =
    match queues, Pci_topology.find_device k.Kernel.topo bdf with
    | Some q, _ -> q
    | None, Some dev -> max 1 (Pci_cfg.msix_table_size (Device.cfg dev))
    | None, None -> 1
  in
  let* w = prefork k sp ~uid ?hang_timeout_ns ~queues ?quota ~epoch ~name ~bdf () in
  activate w cls drv

let proc g = g.g_warm.w_proc
let chan g = g.g_warm.w_chan
let grant g = g.g_grant
let proxy g = g.g_proxy
let blk_proxy = proxy
let class_of g = g.g_class
let uml g = g.g_uml
let queues g = g.g_warm.w_queues
let quota g = Quota.ledger g.g_warm.w_caps
let epoch g = g.g_warm.w_epoch

let netdev g =
  match g.g_netdev with
  | Some d -> d
  | None ->
    invalid_arg ("Driver_host.netdev: " ^ g.g_warm.w_name ^ " registered no network device")

let kill g = Process.kill (proc g)

let restart g =
  kill g;
  (* Let teardown events (fiber kills, device reset) settle at the current
     instant before re-opening the device. *)
  ignore (Fiber.sleep g.g_warm.w_k.Kernel.eng 1_000 : Fiber.wake);
  (* The quota survives the restart; the epoch does not — the new
     generation's channel stamps (and accepts only) epoch+1, so frames
     replayed from the dead generation adjudicate as [Bad_epoch]. *)
  let w = g.g_warm in
  let* next =
    prefork w.w_k w.w_sp ~uid:w.w_uid ?hang_timeout_ns:w.w_hang_timeout_ns ~queues:w.w_queues
      ?quota:(Quota.ledger w.w_caps) ~epoch:((w.w_epoch + 1) land Msg.max_epoch) ~name:w.w_name
      ~bdf:w.w_bdf ()
  in
  g.g_activate next

let set_memory_limit g ~bytes = Process.setrlimit_memory (proc g) ~bytes:(Some bytes)
