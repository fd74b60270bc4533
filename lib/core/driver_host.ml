type 'p gen = {
  g_k : Kernel.t;
  g_name : string;
  g_proc : Process.t;
  g_chan : Uchan.t;
  g_grant : Safe_pci.grant;
  g_proxy : 'p;
  g_class : Proxy_class.instance;
  g_uml : Sud_uml.t;
  g_netdev : Netdev.t option;
  g_queues : int;
  g_quota : Quota.t option;
  g_epoch : int;
  g_relaunch : epoch:int -> ('p gen, string) result;
}

type started = Proxy_net.t gen

type (_, _) cls =
  | Net : {
      defensive_copy : bool;
      adopt_netdev : Netdev.t option;
      unregister_on_exit : bool;
    }
      -> (Driver_api.net_driver, Proxy_net.t) cls
  | Blk : { adopt : Proxy_blk.persist option } -> (Driver_api.blk_driver, Proxy_blk.t) cls
  | Wifi : (Driver_api.wifi_driver, Proxy_wifi.t) cls
  | Audio : (Driver_api.audio_driver, Proxy_audio.t) cls
  | Usb : {
      bind_storage : Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result;
      bind_keyboard :
        Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit;
    }
      -> (Driver_api.usb_host_driver, Proxy_usb.t) cls

let net ?(defensive_copy = true) ?adopt_netdev ?(unregister_on_exit = true) () =
  Net { defensive_copy; adopt_netdev; unregister_on_exit }

let blk ?adopt () = Blk { adopt }
let wifi = Wifi
let audio = Audio
let usb ~bind_storage ~bind_keyboard = Usb { bind_storage; bind_keyboard }

(* What a class contributes to the one bring-up sequence.  [parked]
   (warm standby) is only ever true for a class whose [adoptable] is Ok:
   the lighter classes have no standby and ignore it. *)
type ('d, 'p) desc = {
  d_name : string;
  d_ident : 'd -> string * (int * int) list;  (* driver name, PCI ids *)
  d_pool : int * int;  (* DMA pool: buffers, buffer size *)
  d_proxy :
    parked:bool -> Kernel.t -> chan:Uchan.t -> grant:Safe_pci.grant -> pool:Bufpool.t ->
    name:string -> 'p;
  d_serve : Sud_uml.t -> 'd -> unit;
  d_ready : parked:bool -> 'p -> timeout_ns:int -> bool;
  d_netdev : 'p -> Netdev.t option;
  d_exit : 'p -> unit;  (* on driver death, after the channel closed *)
  d_instance : 'p -> Proxy_class.instance;
  d_adoptable : (unit, string) result;  (* may a parked generation take over? *)
}

let net_pool = (128, 2048)

(* Block buffers must hold a fully merged request (64 sectors); fewer,
   bigger buffers than the net pool. *)
let blk_pool = (64, 32768)

let no_standby name = Error (name ^ " has no warm standby")

let desc : type d p. (d, p) cls -> (d, p) desc = function
  | Net { defensive_copy; adopt_netdev; unregister_on_exit } ->
    { d_name = "net";
      d_ident = (fun d -> (d.Driver_api.nd_name, d.nd_ids));
      d_pool = net_pool;
      d_proxy =
        (fun ~parked k ~chan ~grant ~pool ~name ->
           Proxy_net.create k ~chan ~grant ~pool ~name ~defensive_copy ~parked
             ?adopt:adopt_netdev ());
      d_serve = Sud_uml.serve_net;
      d_ready =
        (fun ~parked p ~timeout_ns ->
           if parked then Proxy_net.wait_registered p ~timeout_ns
           else Proxy_net.wait_ready p ~timeout_ns <> None);
      d_netdev =
        (fun p -> match Proxy_net.netdev p with Some _ as d -> d | None -> adopt_netdev);
      (* A supervised device keeps its netdev across driver deaths; the
         supervisor owns (un)registration in that case. *)
      d_exit = (fun p -> if unregister_on_exit then Proxy_net.unregister p);
      d_instance = Proxy_net.instance;
      d_adoptable =
        (match adopt_netdev with
         | Some _ -> Ok ()
         | None -> Error "no surviving netdev to adopt") }
  | Blk { adopt } ->
    { d_name = "blk";
      d_ident = (fun d -> (d.Driver_api.bd_name, d.bd_ids));
      d_pool = blk_pool;
      d_proxy =
        (fun ~parked k ~chan ~grant ~pool ~name ->
           Proxy_blk.create k ~chan ~grant ~pool ~name ~parked ?adopt ());
      d_serve = Sud_uml.serve_blk;
      d_ready =
        (fun ~parked p ~timeout_ns ->
           if parked then Proxy_blk.wait_registered p ~timeout_ns
           else Proxy_blk.wait_ready p ~timeout_ns <> None);
      d_netdev = (fun _ -> None);
      (* The blkdev (cache, staging, retention in the persist record)
         survives the driver's death; new requests park in staging until
         a fresh generation resumes. *)
      d_exit = Proxy_blk.quiesce;
      d_instance = Proxy_blk.instance;
      d_adoptable =
        (match Option.bind adopt Proxy_blk.persist_blkdev with
         | Some _ -> Ok ()
         | None -> Error "no surviving block device to adopt") }
  | Wifi ->
    { d_name = "wifi";
      d_ident = (fun d -> (d.Driver_api.wd_name, d.wd_ids));
      d_pool = net_pool;
      d_proxy =
        (fun ~parked:_ k ~chan ~grant ~pool ~name -> Proxy_wifi.create k ~chan ~grant ~pool ~name ());
      d_serve = Sud_uml.serve_wifi;
      d_ready = (fun ~parked:_ p ~timeout_ns -> Proxy_wifi.wait_ready p ~timeout_ns <> None);
      d_netdev = Proxy_wifi.netdev;
      d_exit = (fun p -> Proxy_net.unregister (Proxy_wifi.net p));
      d_instance = Proxy_wifi.instance;
      d_adoptable = no_standby "wifi" }
  | Audio ->
    { d_name = "audio";
      d_ident = (fun d -> (d.Driver_api.ad_name, d.ad_ids));
      d_pool = net_pool;
      d_proxy =
        (fun ~parked:_ k ~chan ~grant ~pool ~name -> Proxy_audio.create k ~chan ~grant ~pool ~name ());
      d_serve = Sud_uml.serve_audio;
      d_ready = (fun ~parked:_ p ~timeout_ns -> Proxy_audio.wait_ready p ~timeout_ns);
      d_netdev = (fun _ -> None);
      d_exit = ignore;
      d_instance = Proxy_audio.instance;
      d_adoptable = no_standby "audio" }
  | Usb { bind_storage; bind_keyboard } ->
    { d_name = "usb";
      d_ident = (fun d -> (d.Driver_api.ud_name, d.ud_ids));
      d_pool = net_pool;
      d_proxy =
        (fun ~parked:_ k ~chan ~grant ~pool ~name -> Proxy_usb.create k ~chan ~grant ~pool ~name ());
      d_serve = (fun uml d -> Sud_uml.serve_usb uml ~bind_storage ~bind_keyboard d);
      (* Block and input surfaces appear as the driver enumerates its bus
         ([Proxy_usb.wait_block]); there is no single registration. *)
      d_ready = (fun ~parked:_ _ ~timeout_ns:_ -> true);
      d_netdev = (fun _ -> None);
      d_exit = ignore;
      d_instance = Proxy_usb.instance;
      d_adoptable = no_standby "usb" }

(* ---- the bring-up steps ---- *)

let trace name attrs =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name ~attrs ()
       : int)

let spawn k sp ~uid ~name ~bdf =
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  Process.spawn k.Kernel.procs ~name ~uid

let open_pool sp ?quota bdf ~proc (count, buf_size) =
  match Safe_pci.open_device sp ?quota bdf ~proc with
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
   fits the driver's uchan budget, then charge exactly the negotiated
   footprint (released again on driver exit, so a restart generation
   re-charges from a clean ledger).  Every driver-side kick draws a
   notification token. *)
let rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc ~queues () =
  let slots = 256 in
  let queues, ring_charge =
    match quota with
    | None -> (queues, 0)
    | Some q ->
      let queues = Quota.negotiate_queues q ~slots ~queues in
      (queues, Quota.ring_bytes ~slots ~queues)
  in
  match match quota with Some q -> Quota.charge_uchan q ~bytes:ring_charge | None -> Ok () with
  | Error e -> Error ("uchan rings: " ^ e)
  | Ok () ->
    let chan =
      Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
        ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
    in
    (match quota with
     | None -> ()
     | Some q ->
       Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue));
       Process.on_exit proc (fun () -> Quota.release_uchan q ~bytes:ring_charge));
    Ok (chan, queues)

(* Proxy, driver main loop, and the wait for the driver to register.
   [on_exit] runs at driver death; exit hooks run last-registered-first,
   so where it is registered fixes its order against the ring hooks. *)
let attach d k ~parked ~proc ~grant ~pool ~chan ~name ~on_exit drv =
  let proxy = d.d_proxy ~parked k ~chan ~grant ~pool ~name in
  let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
  Process.on_exit proc (fun () -> on_exit proxy);
  ignore
    (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () -> d.d_serve uml drv) : Fiber.t);
  if d.d_ready ~parked proxy ~timeout_ns:100_000_000 then Ok (proxy, uml)
  else Error ("driver did not register with the " ^ d.d_name ^ " proxy")

(* A failing step kills the half-built generation; its exit hooks
   release what the earlier steps charged. *)
let or_kill proc = function
  | Ok _ as ok -> ok
  | Error _ as e ->
    Process.kill proc;
    e

let ( let* ) = Result.bind

let rec cold d k sp ~uid ~name ~bdf ?hang_timeout_ns ?queues ?quota ~epoch drv =
  trace "start" [ "driver", name; "bdf", Bus.string_of_bdf bdf; "class", d.d_name ];
  let proc = spawn k sp ~uid ~name ~bdf in
  let* grant, pool = or_kill proc (open_pool sp ?quota bdf ~proc d.d_pool) in
  (* One uchan ring pair per deliverable vector: the device's MSI-X
     table sizes the datapath unless the caller narrows it. *)
  let queues =
    clamp_queues (match queues with Some q -> q | None -> Safe_pci.msix_vectors grant)
  in
  let* chan, queues = or_kill proc (rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc ~queues ()) in
  let on_exit proxy =
    trace "exit" [ "driver", name ];
    Uchan.close chan;
    d.d_exit proxy
  in
  let* proxy, uml =
    or_kill proc (attach d k ~parked:false ~proc ~grant ~pool ~chan ~name ~on_exit drv)
  in
  Ok
    { g_k = k;
      g_name = name;
      g_proc = proc;
      g_chan = chan;
      g_grant = grant;
      g_proxy = proxy;
      g_class = d.d_instance proxy;
      g_uml = uml;
      g_netdev = d.d_netdev proxy;
      g_queues = queues;
      g_quota = quota;
      g_epoch = epoch;
      g_relaunch =
        (fun ~epoch -> cold d k sp ~uid ~name ~bdf ?hang_timeout_ns ~queues ?quota ~epoch drv) }

let launch k sp ?(uid = 1000) ?name ?bdf ?hang_timeout_ns ?queues ?quota ?(epoch = 0) cls drv =
  let d = desc cls in
  let drv_name, ids = d.d_ident drv in
  let name = Option.value ~default:drv_name name in
  let bdf =
    match bdf with
    | Some b -> Ok b
    | None ->
      (match Sysfs.match_ids k.Kernel.sysfs ~ids with
       | [] -> Error ("no matching PCI device in sysfs for " ^ name)
       | e :: _ -> Ok e.Sysfs.bdf)
  in
  Result.bind bdf (fun bdf ->
      cold d k sp ~uid ~name ~bdf ?hang_timeout_ns ?queues ?quota ~epoch drv)

let proc g = g.g_proc
let chan g = g.g_chan
let grant g = g.g_grant
let proxy g = g.g_proxy
let blk_proxy = proxy
let class_of g = g.g_class
let uml g = g.g_uml
let queues g = g.g_queues
let quota g = g.g_quota
let epoch g = g.g_epoch

let netdev g =
  match g.g_netdev with
  | Some d -> d
  | None -> invalid_arg ("Driver_host.netdev: " ^ g.g_name ^ " registered no network device")

let kill g = Process.kill g.g_proc

let restart g =
  kill g;
  (* Let teardown events (fiber kills, device reset) settle at the current
     instant before re-opening the device. *)
  ignore (Fiber.sleep g.g_k.Kernel.eng 1_000 : Fiber.wake);
  (* The quota survives the restart; the epoch does not — the new
     generation's channel stamps (and accepts only) epoch+1, so frames
     replayed from the dead generation adjudicate as [Bad_epoch]. *)
  g.g_relaunch ~epoch:((g.g_epoch + 1) land Msg.max_epoch)

let set_memory_limit g ~bytes = Process.setrlimit_memory g.g_proc ~bytes:(Some bytes)

(* ---- warm-standby generations ---- *)

(* A pre-forked generation, parked before attach: the process and its
   epoch-stamped, quota-charged rings.  Everything device-facing waits
   for [activate] (see the interface). *)
type warm = {
  w_k : Kernel.t;
  w_sp : Safe_pci.t;
  w_bdf : Bus.bdf;
  w_uid : int;
  w_name : string;
  w_proc : Process.t;
  w_chan : Uchan.t;
  w_queues : int;
  w_quota : Quota.t option;
  w_epoch : int;
  w_hang_timeout_ns : int option;
}

let prefork k sp ?(uid = 1000) ?hang_timeout_ns ?(queues = 1) ?quota ?(epoch = 0) ~name ~bdf
    () =
  trace "prefork" [ "driver", name; "bdf", Bus.string_of_bdf bdf ];
  let proc = spawn k sp ~uid ~name ~bdf in
  let* chan, queues =
    or_kill proc
      (rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc ~queues:(clamp_queues queues) ())
  in
  Process.on_exit proc (fun () -> Uchan.close chan);
  Ok
    { w_k = k;
      w_sp = sp;
      w_bdf = bdf;
      w_uid = uid;
      w_name = name;
      w_proc = proc;
      w_chan = chan;
      w_queues = queues;
      w_quota = quota;
      w_epoch = epoch;
      w_hang_timeout_ns = hang_timeout_ns }

let warm_proc w = w.w_proc
let warm_chan w = w.w_chan
let discard_warm w = Process.kill w.w_proc

let activate w cls drv =
  let d = desc cls in
  let k = w.w_k and sp = w.w_sp and bdf = w.w_bdf and name = w.w_name and proc = w.w_proc in
  trace "activate" [ "driver", name; "bdf", Bus.string_of_bdf bdf ];
  let* () = or_kill proc d.d_adoptable in
  let* grant, pool = or_kill proc (open_pool sp ?quota:w.w_quota bdf ~proc d.d_pool) in
  let* proxy, uml =
    or_kill proc
      (attach d k ~parked:true ~proc ~grant ~pool ~chan:w.w_chan ~name ~on_exit:d.d_exit drv)
  in
  Ok
    { g_k = k;
      g_name = name;
      g_proc = proc;
      g_chan = w.w_chan;
      g_grant = grant;
      g_proxy = proxy;
      g_class = d.d_instance proxy;
      g_uml = uml;
      g_netdev = d.d_netdev proxy;
      g_queues = w.w_queues;
      g_quota = w.w_quota;
      g_epoch = w.w_epoch;
      g_relaunch =
        (fun ~epoch ->
           cold d k sp ~uid:w.w_uid ~name ~bdf ?hang_timeout_ns:w.w_hang_timeout_ns
             ~queues:w.w_queues ?quota:w.w_quota ~epoch drv) }
