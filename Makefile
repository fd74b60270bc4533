.PHONY: all build test bench bench-smoke gates bench-mq bench-batch bench-blk soak blk-smoke upgrade-smoke bench-upgrade fuzz-smoke check-smoke trace-smoke clean

all: build

build:
	dune build

# The test suite, the source-invariant greps (lint/) and every example
# (examples/dune).
test:
	dune runtest

# Every bench run writes its result (data, gate rows, verdict) to
# traces/bench_<mode>.json and no tracked file; gates that compare
# against an earlier measurement read the frozen bench/baseline.json.

# Full evaluation report: every figure and table, the Figure-8 netperf
# sweep included.  It gates nothing; wall-clock micro-timings are
# perfbench's (perfbench/main.exe --micro).
bench:
	dune exec bench/main.exe

# CI smoke: whole test suite (which pins the disabled tracer's hot-path
# allocation) plus the quick report (no Figure-8 sweep).
bench-smoke:
	dune runtest && dune exec bench/main.exe -- quick

# Every gate in one process: mq, batch smoke, fuzz, blkperf, upgrade,
# upgrade-soak, check, soak and blk-soak smoke.  Prints every row even
# after one fails; exits nonzero iff a row fails.
gates:
	dune exec bench/main.exe -- gates

# Multiqueue sweep: aggregate UDP RX at 1/2/4/8 queues; exits nonzero
# unless 4 queues beat 1 queue by >= 2x with traffic actually spread
# across RX queues.  This gate currently fails: the sweep runs on a
# 1 GbE link, where 1 queue already reaches 859.1 kpps and 2-8 queues
# sit at the ~1126 kpps wire ceiling, so 4q/1q is 1.311x.
bench-mq:
	dune exec bench/main.exe -- mq

# Batched-datapath sweep in smoke mode: fused copy+checksum micro plus
# the four corner (queues, batch) points, checked against the scaling
# gates (fused ratio, 8q speedup over the baseline 4q point, irqs/frame,
# single-frame throughput vs the baseline 1q point); exits nonzero on any
# gate.  `batch` without smoke measures the full 1/4/8-queue x
# 1/8/32-batch grid.
bench-batch:
	dune exec bench/main.exe -- batch smoke

# Supervision soak: per-fault-class recovery latencies, then a fixed-seed
# storm of ~200 faults under live traffic plus a forced crash loop, the
# storage soak (200 injected storage faults under synchronous I/O with
# the crash-consistency invariant checked at every recovery), and the
# Byzantine protocol fuzz.  Exits nonzero if any containment invariant
# breaks.
soak:
	dune exec bench/main.exe -- soak
	dune exec bench/main.exe -- blk-soak
	dune exec bench/main.exe -- fuzz
	dune exec bench/main.exe -- upgrade-soak
	dune exec bench/main.exe -- check

# Warm-standby gate: 20 fixed-seed upgrade+fault interleavings (live
# upgrades, forced failovers, poisoned standbys, crashes racing the
# upgrade drain) under synchronous I/O; exits nonzero if any acked
# write is lost or the supervisor fails to return to Running.
upgrade-smoke:
	dune exec bench/main.exe -- upgrade-soak

# Warm-failover latency per storage fault class vs the cold outages in
# the baseline; exits nonzero unless the crash class fails over >= 2x
# faster than the cold restart it replaces.
bench-upgrade:
	dune exec bench/main.exe -- upgrade

# Quick storage-soak gate for CI: 40 storage faults, same invariants.
blk-smoke:
	dune exec bench/main.exe -- blk-soak smoke

# Block datapath sweep: durable IOPS over queue depth x read mix on the
# supervised NVMe, plus per-fault-class recovery latency; exits nonzero
# unless qd16 scales >= 2x over qd1 and every storage fault class
# recovers inside the soak's outage bound.
bench-blk:
	dune exec bench/main.exe -- blkperf

# Adversarial-interface smoke: the fixed-seed 600-mutation Byzantine
# protocol campaign (every class applied and detected, containment
# invariants held, protocol crash loop quarantined) plus the
# conformance-overhead gate vs the baseline 8q/batch=32 point; exits
# nonzero on any failure.
fuzz-smoke:
	dune exec bench/main.exe -- fuzz

# sud-check smoke: random exploration must find and shrink every seeded
# canary ordering bug (<= 25% of the original counterexample), recorded
# schedules must replay with identical trace hashes across 3 consecutive
# runs (including a supervised fault-domain soak), and the exploration
# throughput is reported; exits nonzero on any gate.
check-smoke:
	dune exec bench/main.exe -- check

# Observability smoke: run a traced DMA-violation recovery and require the
# exported JSONL to contain the full uchan rpc -> iommu fault -> supervisor
# detect -> kill -> restart causal chain.
trace-smoke:
	dune exec bin/sudctl.exe -- trace smoke

clean:
	dune clean
