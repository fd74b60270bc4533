(** Driver lifecycle management (paper §4.1): start an untrusted driver
    process for a device, kill it like any other process, restart it.

    Every device class goes through one bring-up sequence, and each
    started driver is one {e generation} ['p gen], indexed by its
    class's kernel-side proxy.  The steps, in order:

    + spawn: chown the device's sud files to the driver's UID and spawn
      the driver process;
    + grant + DMA pool: open the device (resetting it) and map the shared
      buffer pool, sized by the class;
    + uchan rings: one ring pair per deliverable vector, the count
      negotiated down against the driver's {!Quota.t} and charged to it;
    + proxy + serve + wait: create the class proxy, start the SUD-UML
      dispatch loop in the driver, and wait for the driver to register
      with its class subsystem.

    A cold {!launch} runs the steps in that order.  A warm standby runs
    the first and third ahead of time ({!prefork}) and the rest at swap
    time ({!activate}), once the previous generation has released the
    device.

    Must be called from a fiber. *)

type 'p gen
(** One driver generation of the class whose proxy is ['p]. *)

type started = Proxy_net.t gen
(** An Ethernet driver generation. *)

(** {1 Device classes}

    The class witness carries the driver type a class consumes and the
    proxy it produces, so [launch k sp (net ()) e1000] and
    [launch k sp (blk ()) nvme] type-check against the right driver and
    yield the right generation. *)

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

val net :
  ?defensive_copy:bool ->
  ?adopt_netdev:Netdev.t ->
  ?unregister_on_exit:bool ->
  unit ->
  (Driver_api.net_driver, Proxy_net.t) cls
(** Ethernet.  [defensive_copy] (default on) copies received frames out
    of driver memory (off reproduces the TOCTOU-vulnerable
    configuration).  A supervisor passes [adopt_netdev] (reuse a
    surviving netdev instead of registering a new one) and
    [~unregister_on_exit:false] (it owns the netdev; driver death must
    not tear the interface down). *)

val blk : ?adopt:Proxy_blk.persist -> unit -> (Driver_api.blk_driver, Proxy_blk.t) cls
(** sud-blk, the asynchronous multiqueue block class: its pool holds
    fully merged 64-sector requests.  A supervisor passes [adopt] (the
    {!Proxy_blk.persist} record carrying tags, in-flight table and
    unflushed retention across generations) so recovery can replay. *)

val wifi : (Driver_api.wifi_driver, Proxy_wifi.t) cls
val audio : (Driver_api.audio_driver, Proxy_audio.t) cls

val usb :
  bind_storage:(Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result) ->
  bind_keyboard:
    (Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit) ->
  (Driver_api.usb_host_driver, Proxy_usb.t) cls
(** The USB host class: block and input surfaces appear as the driver
    enumerates its bus, so launching does not wait for them; use
    {!Proxy_usb.wait_block}. *)

(** {1 Cold start} *)

val launch :
  Kernel.t ->
  Safe_pci.t ->
  ?uid:int ->
  ?name:string ->
  ?bdf:Bus.bdf ->
  ?hang_timeout_ns:int ->
  ?queues:int ->
  ?quota:Quota.t ->
  ?epoch:int ->
  ('d, 'p) cls ->
  'd ->
  ('p gen, string) result
(** Start an untrusted driver.  Defaults: [uid] 1000, [name] the
    driver's name, device found in sysfs by the driver's ID table.
    [hang_timeout_ns] tunes the uchan's sync-upcall deadline.  [queues]
    is the number of uchan ring pairs (default: the device's MSI-X table
    size, capped at {!Uchan.max_queues}) — the datapath width the driver
    sees through [pd_msix_vectors].

    With [quota], the driver's whole footprint is charged to the ledger:
    the device grant and its DMA mappings (via {!Safe_pci.open_device}),
    the uchan ring memory (the queue count is first {e negotiated} down
    until the footprint fits the remaining budget), and every
    driver-side notification kick draws a token ({!Quota.note_notify}).
    [epoch] (default 0) is the uchan generation stamp: the channel stamps
    it into every outgoing header and its conformance validator rejects
    ingress frames carrying any other — {!restart} starts the
    replacement at [epoch + 1], so frames replayed from a dead generation
    adjudicate as stale.

    On error every step taken so far is undone: the half-built process
    is killed and its exit hooks release the grant and the ring
    charge. *)

val proc : _ gen -> Process.t
val chan : _ gen -> Uchan.t
val grant : _ gen -> Safe_pci.grant
val proxy : 'p gen -> 'p

val blk_proxy : Proxy_blk.t gen -> Proxy_blk.t
(** {!proxy} at the blk class. *)

val class_of : _ gen -> Proxy_class.instance
(** The proxy behind the class-independent supervision surface. *)

val uml : _ gen -> Sud_uml.t

val netdev : _ gen -> Netdev.t
(** The network device the driver registered (or, warm, adopted); it
    stays readable after the driver dies.
    @raise Invalid_argument for a class without one (blk, audio, usb). *)

val queues : _ gen -> int
(** Ring pairs on this driver's uchan. *)

val quota : _ gen -> Quota.t option

val epoch : _ gen -> int
(** The uchan generation stamp this instance marshals into (and demands
    of) every message header. *)

val kill : _ gen -> unit
(** kill -9: the process dies, the grant is revoked, the uchan closes,
    and the class's exit action runs (an unsupervised netdev
    disappears; a blk proxy quiesces). *)

val restart : 'p gen -> ('p gen, string) result
(** Kill (if still alive) and start a fresh driver process for the same
    device, class options, driver and queue width, at the next epoch —
    the paper's crash-recovery story. *)

val set_memory_limit : _ gen -> bytes:int -> unit
(** setrlimit on the driver process. *)

(** {1 Warm-standby generations}

    A [warm] generation is pre-forked and parked before attach: the
    process is spawned and its epoch-stamped uchan rings are allocated
    and charged to the same per-driver {!Quota.t} ledger as the live
    generation.  The device grant is exclusive per BDF {e and opening
    it resets the device}, so everything device-facing — grant, DMA
    pool, proxy, driver init — waits for {!activate}, which the
    supervisor calls at swap time: the dead generation's kill has
    released the grant and the FLR has left the device in exactly the
    quiesced state a fresh driver expects to initialize against. *)

type warm

val prefork :
  Kernel.t ->
  Safe_pci.t ->
  ?uid:int ->
  ?hang_timeout_ns:int ->
  ?queues:int ->
  ?quota:Quota.t ->
  ?epoch:int ->
  name:string ->
  bdf:Bus.bdf ->
  unit ->
  (warm, string) result
(** Spawn and park a standby generation.  [queues] (default 1) should
    be the live generation's negotiated width — without a grant the
    standby cannot size itself from the MSI-X table. *)

val warm_proc : warm -> Process.t
val warm_chan : warm -> Uchan.t

val discard_warm : warm -> unit
(** Kill the parked process; its exit hooks release the ring charge. *)

val activate : warm -> ('d, 'p) cls -> 'd -> ('p gen, string) result
(** Finish a parked generation against the freshly reset device: open
    the grant, build the DMA pool, create the proxy {e parked} (the
    driver's registration is recorded, not applied), serve the driver,
    and wait for it to register.  The class must name the surviving
    kernel object to take over (net: [adopt_netdev]; blk: an [adopt]
    record whose block device exists); wifi, audio and usb have no
    standby.  On success the caller swaps the proxy in with
    {!Proxy_class.adopt} and replays via [resume]; on error the standby
    process has been killed (its grant released), so a cold start can
    follow. *)
