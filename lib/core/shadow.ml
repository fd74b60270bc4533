type t = {
  k : Kernel.t;
  mutable cur : Driver_host.started;
  mutable want_up : bool;
  mutable n_restarts : int;
  mutable running : bool;
}

let current t = t.cur
let netdev t = Driver_host.netdev t.cur
let restarts t = t.n_restarts
let stop t = t.running <- false

let unhealthy t =
  (not (Process.is_alive (Driver_host.proc t.cur)))
  || Proxy_net.hung (Driver_host.proxy t.cur)

let recover t =
  t.n_restarts <- t.n_restarts + 1;
  Klog.printk t.k.Kernel.klog Klog.Warn "shadow: restarting driver for %s (restart #%d)"
    (Bus.string_of_bdf (Driver_host.bdf t.cur))
    t.n_restarts;
  (* Snapshot the dying generation's class state while its proxy is
     still reachable; the fresh generation adopts it (a no-op for a
     non-parked proxy today, but it keeps the shadow on the same
     handoff/adopt edge the supervisor uses). *)
  let handoff = Proxy_class.handoff (Driver_host.class_of t.cur) in
  match Driver_host.restart t.cur with
  | Error e ->
    Klog.printk t.k.Kernel.klog Klog.Err "shadow: restart failed: %s" e
  | Ok fresh ->
    t.cur <- fresh;
    Proxy_class.adopt (Driver_host.class_of fresh) handoff;
    (* Replay captured interface state. *)
    if t.want_up then
      match Netstack.ifconfig_up t.k.Kernel.net (Driver_host.netdev fresh) with
      | Ok () ->
        Klog.printk t.k.Kernel.klog Klog.Info "shadow: %s recovered and back up"
          (Netdev.name (Driver_host.netdev fresh))
      | Error e ->
        Klog.printk t.k.Kernel.klog Klog.Err "shadow: recovered driver failed to open: %s" e

let watch k ?(poll_ms = 10) started =
  let t = { k; cur = started; want_up = false; n_restarts = 0; running = true }
  in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"shadow-driver"
       (fun () ->
          let rec loop () =
            if t.running then begin
              (* Remember the administrator's intent while healthy. *)
              if Process.is_alive (Driver_host.proc t.cur) then
                t.want_up <- t.want_up || Netdev.is_up (Driver_host.netdev t.cur);
              if unhealthy t then recover t;
              ignore (Fiber.sleep k.Kernel.eng (poll_ms * 1_000_000) : Fiber.wake);
              loop ()
            end
          in
          loop ())
     : Fiber.t);
  t
