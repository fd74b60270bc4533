(** Receive-side scaling: the flow hash that shards traffic over queues.

    One function shared by every layer that steers by flow — the e1000
    device model uses it to pick the RX queue (and hence the MSI-X
    vector), and the kernel's netdev uses it to pick the TX queue — so
    a flow stays on one queue end to end and per-flow packet order is
    preserved across queues.  The hash covers the Ethernet addresses,
    the ethertype and the first bytes of the payload (the sim
    netstack's protocol byte and port pair). *)

val queue_for : queues:int -> bytes -> int
(** Queue index for the frame's flow: the xor-folded flow hash reduced
    mod [queues] (FNV's low bit is a parity function of the input, so
    the fold is what keeps correlated flows off same-parity queues);
    queue 0 when [queues <= 1]. *)

val flow_span : int
(** How many leading frame bytes the hash covers. *)
