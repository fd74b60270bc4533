#!/bin/sh
# Grep-checked source invariants.  Run from the project root over the
# OCaml sources; prints each offending line and exits nonzero if any
# check fails.
status=0
srcs() { grep -RnE --include='*.ml' --include='*.mli' "$@"; }
report() {
  if [ -n "$2" ]; then
    printf '%s\n' "$2"
    echo "lint: $1"
    status=1
  fi
}

# Protocol conformance: every driver->kernel slot is adjudicated by the
# Conformance validator before anything acts on it, so raw
# Msg.unmarshal_view belongs to the uchan library alone (dispatch and
# validator).  bench/'s ring micro-bench, which measures the bare
# unmarshal cost, and the wire-format round-trip tests are out of scope.
report "Msg.unmarshal_view outside lib/uchan (ingress must go through Conformance)" \
  "$(srcs 'Msg\.(Batch\.)?unmarshal_view' lib bin examples \
     | grep -vE '^lib/uchan/(msg|uchan|conformance)\.mli?:')"

# Batched datapath: data messages on the proxy net path ride the
# queue-aware Async/Batched transfers so bursts coalesce into
# scatter-gather batch slots; a Sync transfer of a datapath kind would
# reintroduce a blocking round-trip per frame.
report "per-frame Sync send on the proxy net datapath (use ~queue Async/Batched)" \
  "$(grep -nE 'Uchan\.Sync \(Msg\.make ~kind:Proxy_proto\.(up_net_xmit|up_interrupt|down_netif_rx|down_tx_free)' \
     lib/core/proxy_net.ml lib/core/sud_uml.ml)"

# Quarantine is supervisor-only: degrade/revive is the terminal pair of
# the recovery state machine in lib/core; everything else recovers
# through quiesce/resume.
report "Proxy_class.degrade/revive outside lib/core (recovery uses quiesce/resume)" \
  "$(srcs 'Proxy_class\.(degrade|revive)[^a-zA-Z_]' lib bin bench test examples \
     | grep -vE '^lib/core/')"

# Determinism: stdlib Random is global state the sud-check recorder
# cannot capture, so runs seeded through it would not replay.  All
# randomness flows from the splitmix64 Rng (sub-seeds via Rng.derive).
report "stdlib Random outside lib/sim/rng.ml (use Rng / Rng.derive so runs replay)" \
  "$(srcs '(^|[^.A-Za-z_"])Random\.' lib bin bench test examples \
     | grep -vE '^lib/sim/rng\.mli?:')"

exit $status
