(** Driver lifecycle management (paper §4.1): start an untrusted driver
    process for a device, kill it like any other process, restart it.

    Every device class goes through one bring-up sequence, and each
    started driver is one {e generation} ['p gen], indexed by its
    class's kernel-side proxy.  The steps, in order:

    + spawn: chown the device's sud files to the driver's UID, spawn
      the driver process and create its capability table
      ({!Quota.caps}), which the process's death revokes newest first;
    + uchan rings: one ring pair per deliverable vector, the count
      negotiated down against the driver's {!Quota.t}; the footprint
      and the channel's close are recorded in the table;
    + grant + DMA pool: open the device (resetting it) and map the shared
      buffer pool, sized by the class;
    + proxy + serve + wait: create the class proxy, start the SUD-UML
      dispatch loop in the driver, and wait for the driver to register
      with its class subsystem.

    The first two steps are {!prefork}, which parks the generation; the
    last two are {!activate}.  A cold {!launch} or {!restart} runs one
    right after the other; a warm standby is pre-forked ahead of time and
    activated at swap time, once the previous generation has released
    the device.  Every generation therefore dies the same way: its
    class's exit action runs first, then its table is revoked newest
    first, the grant with everything acquired through it before the
    rings, so the channel closes last.

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
  | Net : { defensive_copy : bool; adopt : Proxy_net.persist option }
      -> (Driver_api.net_driver, Proxy_net.t) cls
  | Blk : { adopt : Proxy_blk.persist option } -> (Driver_api.blk_driver, Proxy_blk.t) cls
  | Wifi : (Driver_api.wifi_driver, Proxy_wifi.t) cls
  | Audio : (Driver_api.audio_driver, Proxy_audio.t) cls
  | Usb : (Driver_api.usb_host_driver, Proxy_usb.t) cls

val net :
  ?defensive_copy:bool ->
  ?adopt:Proxy_net.persist ->
  unit ->
  (Driver_api.net_driver, Proxy_net.t) cls
(** Ethernet.  [defensive_copy] (default on) copies received frames out
    of driver memory (off reproduces the TOCTOU-vulnerable
    configuration).  A supervisor passes [adopt], the
    {!Proxy_net.persist} record whose netdev every generation takes
    over; driver death takes the netdev out of the stack exactly when
    nothing is adopted. *)

val blk : ?adopt:Proxy_blk.persist -> unit -> (Driver_api.blk_driver, Proxy_blk.t) cls
(** sud-blk, the asynchronous multiqueue block class: its pool holds
    fully merged 64-sector requests.  A supervisor passes [adopt] (the
    {!Proxy_blk.persist} record carrying tags, in-flight table and
    unflushed retention across generations) so recovery can replay.  A
    generation whose record already holds a block device serves from its
    proxy's [resume] ({!class_of}): until then the device stays detached
    and the requests an earlier generation left in flight are not its to
    complete. *)

val wifi : (Driver_api.wifi_driver, Proxy_wifi.t) cls
val audio : (Driver_api.audio_driver, Proxy_audio.t) cls

val usb : (Driver_api.usb_host_driver, Proxy_usb.t) cls
(** The USB host class.  The host driver brings its own class drivers
    ({!Driver_api.usb_host_instance}), so the class takes no arguments.
    Block and input surfaces appear as the driver enumerates its bus,
    so launching does not wait for them; use {!Proxy_usb.wait_block}. *)

val ident : ('d, _) cls -> 'd -> string * (int * int) list
(** The driver's name and the PCI (vendor, device) ids it binds, read
    through its class. *)

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

    Everything the generation holds — the device grant and what the
    driver acquires through it ({!Safe_pci.open_device}), the uchan
    rings — is an entry of its capability table.  With [quota] the
    table counts against that ledger: the queue count is first
    {e negotiated} down until the ring footprint fits the remaining
    budget, and every driver-side notification kick draws a token
    ({!Quota.note_notify}).
    [epoch] (default 0) is the uchan generation stamp: the channel stamps
    it into every outgoing header and its conformance validator rejects
    ingress frames carrying any other — {!restart} starts the
    replacement at [epoch + 1], so frames replayed from a dead generation
    adjudicate as stale.

    It runs {!prefork} and then {!activate}.  On error every step taken
    so far is undone: the half-built process is killed, which revokes
    its table. *)

val proc : _ gen -> Process.t
val chan : _ gen -> Uchan.t
val grant : _ gen -> Safe_pci.grant
val proxy : 'p gen -> 'p

val blk_proxy : Proxy_blk.t gen -> Proxy_blk.t
(** {!proxy} at the blk class. *)

val class_of : _ gen -> Proxy_class.t
(** The proxy behind the class-independent supervision surface. *)

val uml : _ gen -> Sud_uml.t

val netdev : _ gen -> Netdev.t
(** The network device the driver registered (a fresh one, or the one
    its class adopts); it stays readable after the driver dies.
    @raise Invalid_argument for a class without one (blk, audio, usb). *)

val queues : _ gen -> int
(** Ring pairs on this driver's uchan. *)

val quota : _ gen -> Quota.t option
(** The ledger the generation's table counts against. *)

val epoch : _ gen -> int
(** The uchan generation stamp this instance marshals into (and demands
    of) every message header. *)

val kill : _ gen -> unit
(** kill -9: the process dies, the class's exit action runs (an
    unsupervised netdev disappears; a blk proxy quiesces), and the
    capability table is revoked: the grant with everything acquired
    through it, and the rings, whose channel closes. *)

val restart : 'p gen -> ('p gen, string) result
(** Kill (if still alive) and start a fresh driver process for the same
    device, class options, driver and queue width, at the next epoch —
    the paper's crash-recovery story: a {!prefork} and an {!activate},
    as {!launch}. *)

val set_memory_limit : _ gen -> bytes:int -> unit
(** setrlimit on the driver process. *)

(** {1 The two halves of a bring-up}

    {!launch} and {!restart} run {!prefork} and {!activate} back to
    back; a warm standby runs them apart.  A [warm] generation is
    pre-forked and parked before attach: the process is spawned and its
    epoch-stamped uchan rings are allocated and recorded in its own
    capability table, which counts against the same per-driver
    {!Quota.t} ledger as the live generation's.  The device grant is
    exclusive per BDF {e and opening it resets the device}, so
    everything device-facing — grant, DMA pool, proxy, driver init —
    waits for {!activate}, which the supervisor calls at swap time: the
    dead generation's kill has revoked its grant and the FLR has left
    the device in exactly the quiesced state a fresh driver expects to
    initialize against. *)

type warm

val prefork :
  Kernel.t ->
  Safe_pci.t ->
  uid:int ->
  ?hang_timeout_ns:int ->
  queues:int ->
  ?quota:Quota.t ->
  epoch:int ->
  name:string ->
  bdf:Bus.bdf ->
  unit ->
  (warm, string) result
(** Spawn and park a generation: its table holds the rings alone until
    {!activate}.  [queues] is the ring pairs asked for, clamped to
    [1 .. Uchan.max_queues] and negotiated against [quota] as in
    {!launch}; a standby should ask for the live generation's
    negotiated width. *)

val warm_proc : warm -> Process.t
val warm_chan : warm -> Uchan.t

val discard_warm : warm -> unit
(** Kill the parked process, which revokes its table: the rings'
    footprint leaves the ledger and the channel closes. *)

val activate : warm -> ('d, 'p) cls -> 'd -> ('p gen, string) result
(** Finish a parked generation: open the grant (resetting the device),
    build the DMA pool, create the class's proxy, serve the driver, and
    wait for it to register.  A supervisor passes its own class, which
    names the surviving kernel object (an [adopt] record), so the
    driver's registration takes that object over and the proxy's first
    [resume] ({!class_of}) replays.  On error the parked process has
    been killed (its table revoked), so a cold start can follow. *)
