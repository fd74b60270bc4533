type t = {
  k : Kernel.t;
  proc : Process.t;
  grant : Safe_pci.grant;
  chan : Uchan.t;
  pool : Bufpool.t;
  mutable irq_handler : (queue:int -> unit) option;
  work : (unit -> unit) Sync.Mailbox.t;
  mutable n_upcalls : int;
  mutable n_worker : int;
}

let worker_count = 4

let create k ~proc ~grant ~chan ~pool =
  let t =
    { k;
      proc;
      grant;
      chan;
      pool;
      irq_handler = None;
      work = Sync.Mailbox.create ~capacity:64;
      n_upcalls = 0;
      n_worker = 0 }
  in
  (* Worker fiber pool for callbacks that are allowed to block (§4.2). *)
  for i = 1 to worker_count do
    ignore
      (Process.spawn_fiber proc ~name:(Printf.sprintf "uml-worker-%d" i) (fun () ->
           let rec loop () =
             match Sync.Mailbox.recv t.work with
             | `Interrupted -> loop ()
             | `Ok job ->
               job ();
               loop ()
           in
           loop ())
       : Fiber.t)
  done;
  t

(* Clamp a device queue index onto a uchan ring the channel actually has:
   a single-ring channel carries every queue's traffic on ring 0. *)
let uq t q = if q >= 0 && q < Uchan.num_queues t.chan then q else 0

let env t =
  { Driver_api.env_jiffies = (fun () -> Engine.now t.k.Kernel.eng / 1_000_000);
    env_msleep = (fun ms -> ignore (Fiber.sleep t.k.Kernel.eng (ms * 1_000_000) : Fiber.wake));
    env_usleep = (fun us -> ignore (Fiber.sleep t.k.Kernel.eng (us * 1_000) : Fiber.wake));
    (* Everything in a SUD driver — interrupt upcalls included — runs in
       the driver process's schedulable context (paper §3.2). *)
    env_may_sleep = (fun () -> true);
    env_printk =
      (fun s ->
         Uchan.transfer t.chan ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_printk ~payload:(Bytes.of_string s) ()));
    env_udelay = (fun us -> Driver_api.charge (Process.cell t.proc) (us * 1_000));
    env_spawn = (fun ~name fn -> ignore (Process.spawn_fiber t.proc ~name fn : Fiber.t));
    env_consume = (fun ns -> Driver_api.charge (Process.cell t.proc) ns) }

let pcidev t =
  let g = t.grant in
  let bdf = Safe_pci.grant_bdf g in
  let request_irqs ~n handler =
    t.irq_handler <- Some handler;
    (* The kernel owns MSI-X programming; each vector comes back to this
       process as an up_interrupt on the matching uchan ring, so queue
       q's interrupt wakes only queue q's service fiber. *)
    let chan = t.chan in
    Safe_pci.setup_irqs g ~n ~sink:(fun ~queue ->
        ignore
          (Uchan.transfer chan ~queue:(uq t queue) ~from:`Kernel Uchan.Nonblock
             (Msg.make ~kind:Proxy_proto.up_interrupt ~args:[ queue ] ())
           : bool))
  in
  { Driver_api.pd_vendor = Safe_pci.cfg_read g ~off:Pci_cfg.vendor_id ~size:2;
    pd_device = Safe_pci.cfg_read g ~off:Pci_cfg.device_id ~size:2;
    pd_bdf = bdf;
    pd_cfg_read = (fun ~off ~size -> Safe_pci.cfg_read g ~off ~size);
    pd_cfg_write = (fun ~off ~size v -> Safe_pci.cfg_write g ~off ~size v);
    pd_enable = (fun () -> Safe_pci.enable_device g);
    pd_map_bar = (fun bar -> Safe_pci.map_mmio g ~bar);
    pd_io_bar = (fun bar -> Safe_pci.claim_io g ~bar);
    pd_alloc_dma = (fun ~bytes () -> Safe_pci.alloc_dma g ~bytes ());
    pd_free_dma = (fun r -> Safe_pci.free_dma g r);
    pd_request_irqs = request_irqs;
    pd_free_irq =
      (fun () ->
         t.irq_handler <- None;
         Safe_pci.teardown_irqs g);
    pd_irq_ack =
      (fun ?(queue = 0) () ->
         Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_irq_ack ~args:[ queue ] ()));
    pd_msix_vectors =
      (fun () -> min (Safe_pci.msix_vectors g) (Uchan.num_queues t.chan));
    pd_find_capability = (fun id -> Safe_pci.find_capability g id) }

(* ---- the net-driver glue: upcall dispatch + downcall callbacks ---- *)

(* Per-packet SUD-UML bookkeeping.  The RX fast path hands the proxy an
   (address, length) pair — descriptor decode and address arithmetic,
   a few hundred ns — and small packets pay a premium for the per-packet
   fraction of ring housekeeping that large packets amortize (paper 5.1:
   TCP_STREAM batches "many large packets to the kernel in one
   downcall").  The rest of the old per-packet figure was message
   construction and notification for the boundary crossing, and that no
   longer belongs here: the uchan charges marshalling and doorbell per
   *batch slot*, so frame aggregation amortizes it across the frames
   sharing a slot instead of paying it once per packet. *)
let uml_packet_cost len = if len >= 256 then 250 else 450

type net_state = {
  inst : Driver_api.net_instance;
  tx_backlog : Driver_api.txbuf list array;
      (* per TX queue: frames the ring refused, oldest last *)
}

let net_callbacks t st_ref =
  { Driver_api.nc_rx =
      (fun ~queue ~addr ~len ->
         (* skb wrapping + netif_rx downcall bookkeeping in SUD-UML.
            Each RX queue batches onto its own ring: per-queue flush
            buffers, never cross-queue contention. *)
         Driver_api.charge (Process.cell t.proc) (uml_packet_cost len);
         Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_netif_rx ~args:[ addr; len ] ()));
    nc_tx_free =
      (fun ~queue ~token ->
         Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_tx_free ~args:[ token ] ()));
    nc_tx_done =
      (fun ~queue ->
         (* Retry frames this queue's ring previously refused before
            telling the kernel there is room again. *)
         (match !st_ref with
          | Some st when queue >= 0 && queue < Array.length st.tx_backlog ->
            let rec drain () =
              match st.tx_backlog.(queue) with
              | [] -> ()
              | txb :: rest ->
                (match st.inst.Driver_api.ni_xmit ~queue txb with
                 | `Ok ->
                   st.tx_backlog.(queue) <- rest;
                   drain ()
                 | `Busy -> ())
            in
            drain ()
          | Some _ | None -> ());
         Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_tx_done ()));
    nc_carrier =
      (fun up ->
         Uchan.transfer t.chan ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_carrier ~args:[ (if up then 1 else 0) ] ())) }

let reply_ok t ?(queue = 0) m ?(args = [ 0 ]) ?payload () =
  Uchan.reply ~queue t.chan (Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ~args ?payload ())

let reply_err t ?(queue = 0) m e =
  Uchan.reply ~queue t.chan
    (Msg.make ~seq:m.Msg.seq ~kind:m.Msg.kind ~args:[ 1 ] ~payload:(Bytes.of_string e) ())

let to_worker t job =
  t.n_worker <- t.n_worker + 1;
  match Sync.Mailbox.send t.work job with
  | `Ok -> ()
  | `Interrupted -> ()

let handle_interrupt t ~queue =
  (match t.irq_handler with Some h -> h ~queue | None -> ());
  (* "The driver indicates that it has finished processing" — ack so the
     kernel unmasks that vector (its siblings were never masked). *)
  Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
    (Msg.make ~kind:Proxy_proto.down_irq_ack ~args:[ queue ] ())

let dispatch_net t st ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.up_net_xmit then begin
    (* Must-not-block path: runs inline in the queue's service loop.
       SUD-UML constructs a socket buffer for every packet the kernel
       transmits (paper 6, "Optimized drivers") -- charged here. *)
    let id = Msg.arg m 0 and len = Msg.arg m 1 in
    let txq = if queue < Array.length st.tx_backlog then queue else 0 in
    Driver_api.charge (Process.cell t.proc) (uml_packet_cost len);
    match Bufpool.get t.pool id with
    | None -> ()      (* kernel is trusted; only possible after close *)
    | Some buf ->
      let txb =
        { Driver_api.txb_addr = buf.Bufpool.addr;
          txb_len = len;
          txb_token = buf.Bufpool.id;
          txb_read = (fun () -> Bufpool.read t.pool buf ~off:0 ~len) }
      in
      (match st.inst.Driver_api.ni_xmit ~queue:txq txb with
       | `Ok -> ()
       | `Busy -> st.tx_backlog.(txq) <- st.tx_backlog.(txq) @ [ txb ])
  end
  else if kind = Proxy_proto.up_interrupt then
    handle_interrupt t ~queue:(Msg.arg m 0)
  else if kind = Proxy_proto.up_ping then
    (* Supervisor heartbeat: answered inline, so a reply proves the main
       upcall loop is alive, not merely a worker fiber. *)
    reply_ok t ~queue m ()
  else if kind = Proxy_proto.up_net_open then
    to_worker t (fun () ->
        match st.inst.Driver_api.ni_open () with
        | Ok () -> reply_ok t ~queue m ()
        | Error e -> reply_err t ~queue m e)
  else if kind = Proxy_proto.up_net_stop then
    to_worker t (fun () ->
        st.inst.Driver_api.ni_stop ();
        reply_ok t ~queue m ())
  else if kind = Proxy_proto.up_net_ioctl then
    to_worker t (fun () ->
        match st.inst.Driver_api.ni_ioctl ~cmd:(Msg.arg m 0) ~arg:(Msg.arg m 1) with
        | Ok v -> reply_ok t ~queue m ~args:[ 0; v ] ()
        | Error e -> reply_err t ~queue m e)
  else
    (* Unknown upcall: reply with an error if a reply is expected, so the
       kernel never blocks on us. *)
    if m.Msg.seq <> 0 then reply_err t ~queue m "unsupported upcall"

(* One service loop per uchan ring.  Queue 0 runs in the caller's fiber
   (it doubles as the control path); data queues get their own fibers,
   so a busy ring never delays its siblings' interrupts or heartbeats. *)
let serve_queues t dispatch =
  let n = Uchan.num_queues t.chan in
  let loop_on queue () =
    let rec loop () =
      match Uchan.wait ~queue t.chan with
      | Ok m ->
        t.n_upcalls <- t.n_upcalls + 1;
        dispatch ~queue m;
        loop ()
      | Error Uchan.Interrupted -> loop ()   (* non-fatal signal *)
      | Error (Uchan.Closed | Uchan.Hung) -> ()
    in
    loop ()
  in
  for q = 1 to n - 1 do
    ignore
      (Process.spawn_fiber t.proc ~name:(Printf.sprintf "uml-queue-%d" q) (loop_on q)
       : Fiber.t)
  done;
  loop_on 0 ()

let serve_net t (drv : Driver_api.net_driver) =
  let st_ref = ref None in
  let callbacks = net_callbacks t st_ref in
  match drv.Driver_api.nd_probe (env t) (pcidev t) callbacks with
  | Error e ->
    (env t).Driver_api.env_printk (Printf.sprintf "probe failed: %s" e)
  | Ok inst ->
    let nq = max 1 inst.Driver_api.ni_tx_queues in
    let st = { inst; tx_backlog = Array.make nq [] } in
    st_ref := Some st;
    (match
       Uchan.transfer t.chan ~from:`Driver Uchan.Sync
         (Msg.make ~kind:Proxy_proto.down_net_register ~args:[ nq ]
            ~payload:inst.Driver_api.ni_mac ())
     with
     | Ok _ -> serve_queues t (dispatch_net t st)
     | Error _ -> ())

let upcalls_handled t = t.n_upcalls
let worker_dispatches t = t.n_worker

(* ---- wireless ---- *)

let dispatch_wifi t (wi : Driver_api.wifi_instance) st ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.up_wifi_scan then
    to_worker t (fun () ->
        match wi.Driver_api.wi_scan () with
        | Ok () -> reply_ok t ~queue m ()
        | Error e -> reply_err t ~queue m e)
  else if kind = Proxy_proto.up_wifi_assoc then
    to_worker t (fun () ->
        match wi.Driver_api.wi_associate ~bssid:(Msg.arg m 0) with
        | Ok () -> reply_ok t ~queue m ()
        | Error e -> reply_err t ~queue m e)
  else if kind = Proxy_proto.up_wifi_set_rate then
    (* Asynchronous by design: queued from non-preemptable kernel context. *)
    ignore (wi.Driver_api.wi_set_rate (Msg.arg m 0) : (unit, string) result)
  else dispatch_net t st ~queue m

let serve_wifi t (drv : Driver_api.wifi_driver) =
  let st_ref = ref None in
  let ncb = net_callbacks t st_ref in
  let callbacks =
    { Driver_api.wc_net = ncb;
      wc_scan_done =
        (fun bssids ->
           let payload = Bytes.create (2 * List.length bssids) in
           List.iteri (fun i b -> Bytes.set_uint16_le payload (2 * i) b) bssids;
           Uchan.transfer t.chan ~from:`Driver Uchan.Batched
             (Msg.make ~kind:Proxy_proto.down_wifi_scan_done ~payload ()));
      wc_bss_changed =
        (fun bssid ->
           Uchan.transfer t.chan ~from:`Driver Uchan.Batched
             (Msg.make ~kind:Proxy_proto.down_wifi_bss_changed ~args:[ bssid ] ())) }
  in
  match drv.Driver_api.wd_probe (env t) (pcidev t) callbacks with
  | Error e -> (env t).Driver_api.env_printk (Printf.sprintf "probe failed: %s" e)
  | Ok wi ->
    let inst = wi.Driver_api.wi_net in
    let nq = max 1 inst.Driver_api.ni_tx_queues in
    let st = { inst; tx_backlog = Array.make nq [] } in
    st_ref := Some st;
    (* Mirror the static supported-rate set into the kernel (§3.1.1). *)
    let rates = wi.Driver_api.wi_bitrates () in
    let rates_payload = Bytes.create (2 * List.length rates) in
    List.iteri (fun i r -> Bytes.set_uint16_le rates_payload (2 * i) r) rates;
    Uchan.transfer t.chan ~from:`Driver Uchan.Batched
      (Msg.make ~kind:Proxy_proto.down_wifi_rates ~payload:rates_payload ());
    (match
       Uchan.transfer t.chan ~from:`Driver Uchan.Sync
         (Msg.make ~kind:Proxy_proto.down_net_register ~args:[ nq ]
            ~payload:inst.Driver_api.ni_mac ())
     with
     | Ok _ -> serve_queues t (dispatch_wifi t wi st)
     | Error _ -> ())

(* ---- audio ---- *)

let dispatch_audio t (au : Driver_api.audio_instance) ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.up_audio_write then begin
    (* Inline, must not block: pull PCM out of the shared buffer. *)
    let id = Msg.arg m 0 and len = Msg.arg m 1 in
    match Bufpool.get t.pool id with
    | None -> ()
    | Some buf ->
      let pcm = Bufpool.read t.pool buf ~off:0 ~len in
      Driver_api.charge (Process.cell t.proc) 800;
      ignore (au.Driver_api.au_write pcm : int);
      Uchan.transfer t.chan ~from:`Driver Uchan.Batched
        (Msg.make ~kind:Proxy_proto.down_tx_free ~args:[ id ] ())
  end
  else if kind = Proxy_proto.up_interrupt then
    handle_interrupt t ~queue:(Msg.arg m 0)
  else if kind = Proxy_proto.up_ping then reply_ok t ~queue m ()
  else if kind = Proxy_proto.up_audio_start then
    to_worker t (fun () ->
        match au.Driver_api.au_start () with
        | Ok () -> reply_ok t ~queue m ()
        | Error e -> reply_err t ~queue m e)
  else if kind = Proxy_proto.up_audio_stop then
    to_worker t (fun () ->
        au.Driver_api.au_stop ();
        reply_ok t ~queue m ())
  else if kind = Proxy_proto.up_audio_set_vol then
    to_worker t (fun () ->
        match au.Driver_api.au_set_volume (Msg.arg m 0) with
        | Ok () -> reply_ok t ~queue m ()
        | Error e -> reply_err t ~queue m e)
  else if kind = Proxy_proto.up_audio_get_vol then
    to_worker t (fun () ->
        match au.Driver_api.au_get_volume () with
        | Ok v -> reply_ok t ~queue m ~args:[ 0; v ] ()
        | Error e -> reply_err t ~queue m e)
  else if m.Msg.seq <> 0 then reply_err t ~queue m "unsupported upcall"

let serve_audio t (drv : Driver_api.audio_driver) =
  let callbacks =
    { Driver_api.ac_period_elapsed =
        (fun () ->
           Uchan.transfer t.chan ~from:`Driver Uchan.Batched
             (Msg.make ~kind:Proxy_proto.down_audio_period ())) }
  in
  match drv.Driver_api.ad_probe (env t) (pcidev t) callbacks with
  | Error e -> (env t).Driver_api.env_printk (Printf.sprintf "probe failed: %s" e)
  | Ok au ->
    (match
       Uchan.transfer t.chan ~from:`Driver Uchan.Sync
         (Msg.make ~kind:Proxy_proto.down_audio_register ())
     with
     | Ok _ -> serve_queues t (dispatch_audio t au)
     | Error _ -> ())

(* ---- sud-blk: asynchronous NVMe-style block ---- *)

type blk_state = {
  binst : Driver_api.blkdev_instance;
  (* Per uchan ring: submissions the hardware queue refused, oldest
     first — retried in order when a completion frees a slot, so the
     per-queue FIFO the recovery invariant leans on is preserved. *)
  blk_pending : (int * int * int * int * int) Queue.t array;
}

let blk_try_submit st ~queue ~tag ~op ~lba ~count ~addr =
  let q = if queue >= 0 && queue < Array.length st.blk_pending then queue else 0 in
  if not (Queue.is_empty st.blk_pending.(q)) then
    (* Order matters: nothing overtakes a parked submission. *)
    Queue.add (tag, op, lba, count, addr) st.blk_pending.(q)
  else
    match st.binst.Driver_api.bi_submit ~queue:q ~tag ~op ~lba ~count ~addr with
    | `Ok -> ()
    | `Busy -> Queue.add (tag, op, lba, count, addr) st.blk_pending.(q)

let blk_drain_pending st queue =
  let q = if queue >= 0 && queue < Array.length st.blk_pending then queue else 0 in
  let rec go () =
    match Queue.peek_opt st.blk_pending.(q) with
    | None -> ()
    | Some (tag, op, lba, count, addr) ->
      (match st.binst.Driver_api.bi_submit ~queue:q ~tag ~op ~lba ~count ~addr with
       | `Ok ->
         ignore (Queue.pop st.blk_pending.(q) : int * int * int * int * int);
         go ()
       | `Busy -> ())
  in
  go ()

let blk_callbacks t st_ref =
  { Driver_api.bc_complete =
      (fun ~queue ~tag ~status ->
         (* A completion frees a submission-queue slot: retry parked
            requests before reporting, so replays drain promptly. *)
         (match !st_ref with
          | Some st -> blk_drain_pending st queue
          | None -> ());
         Uchan.transfer t.chan ~queue:(uq t queue) ~from:`Driver Uchan.Batched
           (Msg.make ~kind:Proxy_proto.down_blk_complete ~args:[ tag; status ] ())) }

let dispatch_blk t st ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.up_blk_submit then begin
    (* Must-not-block path, inline in the ring's service fiber.  The
       buffer id is encoded +1 on the wire (0 = no buffer — flush). *)
    let tag = Msg.arg m 0 and op = Msg.arg m 1 and lba = Msg.arg m 2 in
    let count = Msg.arg m 3 and buf1 = Msg.arg m 4 in
    Driver_api.charge (Process.cell t.proc) 300;
    let addr =
      if buf1 = 0 then Some 0
      else
        match Bufpool.get t.pool (buf1 - 1) with
        | Some buf -> Some buf.Bufpool.addr
        | None -> None    (* kernel is trusted; only possible after close *)
    in
    match addr with
    | None -> ()
    | Some addr -> blk_try_submit st ~queue ~tag ~op ~lba ~count ~addr
  end
  else if kind = Proxy_proto.up_interrupt then
    handle_interrupt t ~queue:(Msg.arg m 0)
  else if kind = Proxy_proto.up_ping then reply_ok t ~queue m ()
  else if m.Msg.seq <> 0 then reply_err t ~queue m "unsupported upcall"

let serve_blk t (drv : Driver_api.blk_driver) =
  let st_ref = ref None in
  let callbacks = blk_callbacks t st_ref in
  match drv.Driver_api.bd_probe (env t) (pcidev t) callbacks with
  | Error e -> (env t).Driver_api.env_printk (Printf.sprintf "probe failed: %s" e)
  | Ok binst ->
    let nq = Uchan.num_queues t.chan in
    let st = { binst; blk_pending = Array.init nq (fun _ -> Queue.create ()) } in
    st_ref := Some st;
    (match
       Uchan.transfer t.chan ~from:`Driver Uchan.Sync
         (Msg.make ~kind:Proxy_proto.down_blkdev_register
            ~args:[ binst.Driver_api.bi_capacity; binst.Driver_api.bi_queues ] ())
     with
     | Ok _ -> serve_queues t (dispatch_blk t st)
     | Error _ -> ())

(* ---- USB host: block + input ---- *)

let blk_block_size = 512

let dispatch_usb t (blk : Driver_api.block_instance option) ~queue m =
  let kind = m.Msg.kind in
  if kind = Proxy_proto.up_blk_read then
    to_worker t (fun () ->
        match blk with
        | None -> reply_err t ~queue m "no storage device"
        | Some b ->
          let lba = Msg.arg m 0 and count = Msg.arg m 1 and id = Msg.arg m 2 in
          (match Bufpool.get t.pool id with
           | None -> reply_err t ~queue m "bad buffer"
           | Some buf when count * blk_block_size > buf.Bufpool.size ->
             reply_err t ~queue m "request too large"
           | Some buf ->
             (match b.Driver_api.bl_read ~lba ~count with
              | Error e -> reply_err t ~queue m e
              | Ok data ->
                Bufpool.write t.pool buf ~off:0 data;
                reply_ok t ~queue m ())))
  else if kind = Proxy_proto.up_blk_write then
    to_worker t (fun () ->
        match blk with
        | None -> reply_err t ~queue m "no storage device"
        | Some b ->
          let lba = Msg.arg m 0 and count = Msg.arg m 1 and id = Msg.arg m 2 in
          (match Bufpool.get t.pool id with
           | None -> reply_err t ~queue m "bad buffer"
           | Some buf when count * blk_block_size > buf.Bufpool.size ->
             reply_err t ~queue m "request too large"
           | Some buf ->
             let data = Bufpool.read t.pool buf ~off:0 ~len:(count * blk_block_size) in
             (match b.Driver_api.bl_write ~lba data with
              | Error e -> reply_err t ~queue m e
              | Ok () -> reply_ok t ~queue m ())))
  else if kind = Proxy_proto.up_interrupt then
    handle_interrupt t ~queue:(Msg.arg m 0)
  else if kind = Proxy_proto.up_ping then reply_ok t ~queue m ()
  else if m.Msg.seq <> 0 then reply_err t ~queue m "unsupported upcall"

let serve_usb t ~bind_storage ~bind_keyboard (drv : Driver_api.usb_host_driver) =
  match drv.Driver_api.ud_probe (env t) (pcidev t) with
  | Error e -> (env t).Driver_api.env_printk (Printf.sprintf "probe failed: %s" e)
  | Ok host ->
    let blk = ref None in
    (match host.Driver_api.uh_enumerate () with
     | Error e -> (env t).Driver_api.env_printk (Printf.sprintf "enumerate failed: %s" e)
     | Ok handles ->
       List.iter
         (fun ud ->
            if ud.Driver_api.ud_class = 0x08 && !blk = None then begin
              match bind_storage ud with
              | Ok b ->
                blk := Some b;
                ignore
                  (Uchan.transfer t.chan ~from:`Driver Uchan.Sync
                     (Msg.make ~kind:Proxy_proto.down_blk_register
                        ~args:[ b.Driver_api.bl_capacity () ] ())
                   : (Msg.t, Uchan.error) result)
              | Error e ->
                (env t).Driver_api.env_printk (Printf.sprintf "usb-storage: %s" e)
            end
            else if ud.Driver_api.ud_class = 0x03 then
              bind_keyboard (env t) ud
                { Driver_api.ic_key =
                    (fun key ->
                       Uchan.transfer t.chan ~from:`Driver Uchan.Batched
                         (Msg.make ~kind:Proxy_proto.down_input_key ~args:[ key ] ())) })
         handles);
    serve_queues t (fun ~queue m ->
        dispatch_usb t !blk ~queue m)
