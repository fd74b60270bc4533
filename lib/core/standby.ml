(* Warm-standby slot manager: keeps one pre-forked generation parked and
   healthy so the supervisor can swap instead of cold-start.  Generic in
   the generation type — the supervisor instantiates it with
   Driver_host.warm — so the policy lives here (tag discipline, poison
   probing, rebuild-on-failure) and the mechanism lives with the owner.

   Tag discipline: every warm generation is built for exactly one live
   generation (the uchan epoch the next swap will expect).  A slot whose
   tag no longer matches the live generation is stale — its channel
   would stamp the wrong epoch — and is discarded, never swapped in.
   Likewise a parked generation that dies or violates conformance while
   waiting ([probe] returns a reason) is poisoned: discarded, counted,
   and rebuilt from scratch. *)

type status = Idle | Warming | Ready | Disabled

let status_name = function
  | Idle -> "idle"
  | Warming -> "warming"
  | Ready -> "ready"
  | Disabled -> "disabled"

type 'g t = {
  k : Kernel.t;
  name : string;
  warm : tag:int -> ('g, string) result;
  probe : 'g -> string option;          (* Some reason = poisoned *)
  discard : 'g -> unit;
  mutable slot : (int * 'g) option;     (* tag, parked generation *)
  mutable warming : bool;
  mutable enabled : bool;
  mutable want_tag : int;
  mutable warmed : int;
  mutable poisoned : int;
  mutable on_ready : unit -> unit;
}

let klogf t lvl fmt = Klog.printk t.k.Kernel.klog lvl fmt

let create k ~name ~warm ~probe ~discard =
  { k;
    name;
    warm;
    probe;
    discard;
    slot = None;
    warming = false;
    enabled = true;
    want_tag = -1;
    warmed = 0;
    poisoned = 0;
    on_ready = (fun () -> ()) }

let set_on_ready t f = t.on_ready <- f

let status t =
  if not t.enabled then Disabled
  else
    match t.slot with
    | Some _ -> Ready
    | None -> if t.warming then Warming else Idle

let stats t = (t.warmed, t.poisoned)

let drop_slot t =
  match t.slot with
  | Some (_, g) ->
    t.slot <- None;
    t.discard g
  | None -> ()

let retry_ns = 1_000_000 (* pause between warm attempts *)

(* The warming fiber: build one generation for [tag], retrying a few
   times (driver init can transiently fail), and park it — unless the
   world moved on (tag changed, manager disabled) while we built. *)
let rec spawn_warmer t ~tag =
  t.warming <- true;
  ignore
    (Process.spawn_fiber (Process.kernel_process t.k.Kernel.procs)
       ~name:("standby:" ^ t.name)
       (fun () ->
          let rec attempt n =
            if (not t.enabled) || t.want_tag <> tag then ()
            else
              match t.warm ~tag with
              | Ok g ->
                if t.enabled && t.want_tag = tag && t.slot = None then begin
                  t.slot <- Some (tag, g);
                  t.warmed <- t.warmed + 1;
                  klogf t Klog.Info "sud: standby(%s): generation warm (tag %d)" t.name tag;
                  t.on_ready ()
                end
                else t.discard g
              | Error e ->
                if n < 3 then begin
                  ignore (Fiber.sleep t.k.Kernel.eng retry_ns : Fiber.wake);
                  attempt (n + 1)
                end
                else
                  klogf t Klog.Warn "sud: standby(%s): could not warm a generation: %s"
                    t.name e
          in
          attempt 0;
          t.warming <- false;
          (* The live generation may have moved on while we warmed;
             converge instead of leaving a stale slot behind. *)
          if t.enabled && t.want_tag <> tag then ensure t ~tag:t.want_tag)
     : Fiber.t)

and ensure t ~tag =
  if t.enabled then begin
    t.want_tag <- tag;
    (match t.slot with
     | Some (g_tag, _) when g_tag <> tag ->
       klogf t Klog.Info "sud: standby(%s): discarding stale standby (tag %d, want %d)"
         t.name g_tag tag;
       drop_slot t
     | Some (_, g) ->
       (match t.probe g with
        | None -> ()
        | Some why ->
          t.poisoned <- t.poisoned + 1;
          klogf t Klog.Warn
            "sud: standby(%s): parked standby poisoned (%s); discarding and rebuilding"
            t.name why;
          drop_slot t)
     | None -> ());
    if t.slot = None && not t.warming then spawn_warmer t ~tag
  end

let take t ~tag =
  match t.slot with
  | Some (g_tag, g) when t.enabled && g_tag = tag ->
    (* One last poison check at the swap instant: a standby that died
       while parked must never be installed. *)
    (match t.probe g with
     | None ->
       t.slot <- None;
       Some g
     | Some why ->
       t.poisoned <- t.poisoned + 1;
       klogf t Klog.Warn "sud: standby(%s): standby poisoned at swap (%s); cold path" t.name
         why;
       drop_slot t;
       None)
  | Some _ | None -> None

let peek t =
  match t.slot with
  | Some (_, g) -> Some g
  | None -> None

let disable t =
  t.enabled <- false;
  drop_slot t
