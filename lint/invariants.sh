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
# validator).  The wire-format round-trip tests are out of scope.
report "Msg.unmarshal_view outside lib/uchan (ingress must go through Conformance)" \
  "$(srcs 'Msg\.(Batch\.)?unmarshal_view' lib bin bench examples \
     | grep -vE '^lib/uchan/(msg|uchan|conformance)\.mli?:')"

# Batched datapath: data messages on the proxy net path ride the
# queue-aware Async/Batched transfers so bursts coalesce into
# scatter-gather batch slots; a Sync transfer of a datapath kind would
# reintroduce a blocking round-trip per frame.
report "per-frame Sync send on the proxy net datapath (use ~queue Async/Batched)" \
  "$(grep -nE 'Uchan\.Sync \(Msg\.make ~kind:Proxy_proto\.(up_net_xmit|up_interrupt|down_netif_rx|down_tx_free)' \
     lib/core/proxy_net.ml lib/core/sud_uml.ml)"

# Determinism: stdlib Random is global state the sud-check recorder
# cannot capture, so runs seeded through it would not replay.  All
# randomness flows from the splitmix64 Rng (sub-seeds via Rng.derive).
report "stdlib Random outside lib/sim/rng.ml (use Rng / Rng.derive so runs replay)" \
  "$(srcs '(^|[^.A-Za-z_"])Random\.' lib bin bench test examples \
     | grep -vE '^lib/sim/rng\.mli?:')"

# Every wait owns its wakers: its timer and queue entry die the moment
# the wait ends, because every suspension is built in lib/sim
# (Fiber.sleep, Fiber.yield, the Sync waits), whose release cancels
# them.  A raw Fiber.suspend elsewhere could arm a timer that outlives
# its wait and wakes the fiber out of a later one.  test_sim.ml drives
# the primitive itself.
report "Fiber.suspend outside lib/sim (use Fiber.sleep or a Sync wait, which own their timers)" \
  "$(srcs 'Fiber\.suspend' lib bin bench test examples \
     | grep -vE '^(lib/sim/|test/test_sim\.ml:)')"

# DMA confinement: device models and drivers reach physical memory only
# through Pci_topology's DMA path, which checks every IOVA page of a
# transfer against the IOMMU.  A direct Phys_mem call from a device
# model or a driver would move bytes no translation ever saw.
report "Phys_mem. in lib/hw or lib/drivers outside phys_mem.ml(i) and pci_topology.ml(i) (DMA goes through Pci_topology)" \
  "$(srcs 'Phys_mem\.' lib/hw lib/drivers \
     | grep -vE '^lib/hw/(phys_mem|pci_topology)\.mli?:')"

# One JSON codec: every JSON document the program writes or reads is a
# Json.t, printed and parsed by lib/obs/json.ml.  A key spelled out in a
# format string or a scanner's pattern is a second codec, one that
# escapes strings its own way or misreads what the other wrote.
report "hand-written JSON key outside lib/obs/json.ml (build a Json.t)" \
  "$(srcs '\\"(%s|[a-z_]+)\\":' lib bin bench examples \
     | grep -vE '^lib/obs/json\.ml:')"

exit $status
