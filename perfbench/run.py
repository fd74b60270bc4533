#!/usr/bin/env python3
"""Run one workload of the SUD benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it as a fresh process per
repetition until S seconds have passed.  Every repetition replays the
same seed-generated inputs, so simulated-time metrics and exact counts
must repeat bit for bit; wall-clock metrics are the fastest
repetition's.  One more repetition under a second seed must see other
inputs and pass every check.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from
alternating untraced and traced repetitions plus one run of micro-timings
and of the check layer.
Per-layer metrics of a layer the workload does not exercise read 0.

Exit status: 0 when every check passed, 1 when one failed (the result
line is still printed, with "correct": false), 2 on a usage, build or
crash error (no result line).
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join(ROOT, "_build", "perfbench")
REP_TIMEOUT_S = 150
REP_MEMORY_BYTES = 3 << 30  # address-space cap of one repetition
USAGE = "usage: run.py --workload NAME --seed N --seconds S --trace 0|1"


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workloads):
    if len(argv) % 2:
        die(USAGE)
    opts = {}
    for key, val in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace") or key in opts:
            die(f"unexpected argument {key!r}\n{USAGE}")
        opts[key] = val
    if len(opts) != 4:
        die(USAGE)
    if opts["--workload"] not in workloads:
        die(f"unknown workload {opts['--workload']!r}; one of {', '.join(workloads)}")
    try:
        seed = int(opts["--seed"])
        seconds = int(opts["--seconds"])
    except ValueError:
        die(USAGE)
    if not -(2**63) <= seed < 2**63 or not 1 <= seconds <= 60 or opts["--trace"] not in ("0", "1"):
        die(USAGE)
    return opts["--workload"], seed, seconds, opts["--trace"] == "1"


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


# Repetitions take the allowed CPUs in turn.  On a shared host each CPU
# has slow spells of seconds to minutes, often not at the same time as
# the other's, and a repetition tends to stay on the CPU it started on.
CPUS = sorted(os.sched_getaffinity(0))
spawned = 0


def child(args):
    global spawned
    cpu = CPUS[spawned % len(CPUS)]
    spawned += 1

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (REP_MEMORY_BYTES, REP_MEMORY_BYTES))
        os.sched_setaffinity(0, {cpu})

    t_spawn = time.time()
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S, preexec_fn=limit)
    except subprocess.TimeoutExpired:
        die(f"repetition timed out: {' '.join(args)}")
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr[-4000:])
        die(f"repetition crashed: {' '.join(args)}")
    d = json.loads(p.stdout.strip().splitlines()[-1])
    d["rep_s"] = time.time() - t_spawn
    if "t_first_op" in d:
        d["setup_s"] = d["t_first_op"] - t_spawn
    return d


def rep(workload, seed, traced, spans=None):
    args = ["--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if spans:
        args += ["--spans", spans]
    return child(args)


def second_seed(seed):
    s = (seed * 6364136223846793005 + 1442695040888963407) % 2**63
    return s if s != seed else s + 1


def fastest(reps, group, name):
    """Wall-clock figures are the fastest repetition's: the work repeats
    exactly, and interference from outside only ever slows it down."""
    return min(r[group][name] for r in reps)


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, msg):
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {msg}", file=sys.stderr)

    def reps_ok(self, reps):
        for r in reps:
            for msg in r["failures"]:
                print(f"CHECK FAILED ({r['workload']} seed {r['seed']}): {msg}", file=sys.stderr)

    def same(self, a, b, groups, what, skip=()):
        for g in groups:
            da = {k: v for k, v in a[g].items() if not k.startswith(skip)}
            db = {k: v for k, v in b[g].items() if not k.startswith(skip)}
            diff = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
            self.expect(not diff, f"{what}: {g} metrics differ: {', '.join(diff)}")
        self.expect(a["fingerprint"] == b["fingerprint"], f"{what}: run fingerprints differ")
        self.expect(a["digest"] == b["digest"], f"{what}: input digests differ")


def repeat(workload, seed, deadline, plan, min_reps):
    """Run repetitions of [plan] (a cycle of traced flags) until the
    deadline, leaving room for one more repetition, and at least
    [min_reps] of them."""
    reps = []
    while True:
        traced = plan[len(reps) % len(plan)]
        spans = None
        if traced and not any(r["traced"] for r in reps):
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")
        reps.append(rep(workload, seed, traced, spans))
        longest = max(r["rep_s"] for r in reps)
        if len(reps) >= min_reps and time.time() + longest > deadline:
            return reps


def main():
    t_start = time.time()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workload, seed, seconds, traced = parse_args(sys.argv[1:], names)
    build()
    deadline = time.time() + seconds
    checks = Checks()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    if not traced:
        reps = repeat(workload, seed, deadline - 1, [False], 2)
        other = rep(workload, second_seed(seed), False)
        checks.reps_ok(reps + [other])
        for r in reps[1:]:
            checks.same(reps[0], r, ("exact",), "repetitions of one seed")
        checks.expect(other["digest"] != reps[0]["digest"], "a second seed generated the same inputs")
        metrics = {}
        for name, unit in e2e.items():
            if name == "setup_s":
                # Every repetition sets up afresh.  The host runs the same
                # work at two speeds in spells of seconds to minutes, so
                # the median of one run's set-ups follows the share of slow
                # spells in it (51-83 ms over four 25 s windows of
                # net-stream) while the fastest stays put (46-51 ms).
                value = min(r["setup_s"] for r in reps + [other])
            elif name in reps[0]["exact"]:
                value = reps[0]["exact"][name]
            elif name in reps[0]["alloc"]:
                value = statistics.median(r["alloc"][name] for r in reps)
            else:
                die(f"workload {workload} does not measure {name}")
            metrics[name] = {"value": value, "unit": unit}
        all_reps = reps + [other]
    else:
        reps = repeat(workload, seed, deadline - 3, [False, True], 2)
        plain = [r for r in reps if not r["traced"]]
        traced_reps = [r for r in reps if r["traced"]]
        checks.reps_ok(reps)
        for r in reps[1:]:
            checks.same(reps[0], r, ("exact",), "traced and untraced repetitions", skip=("obs.",))
        micro = child(["--micro"])
        for msg in micro["failures"]:
            checks.expect(False, f"check layer: {msg}")
        micro = {**micro["exact"], **micro["wall"]}
        metrics = {}
        for name, unit in layer.items():
            if name == "obs.trace_overhead":
                value = (fastest(traced_reps, "wall", "sim.wall_ns_per_op")
                         / fastest(plain, "wall", "sim.wall_ns_per_op") - 1.0)
            elif name == "obs.spans_per_op":
                value = traced_reps[0]["exact"].get(name, 0.0)
            elif name in plain[0]["exact"]:
                value = plain[0]["exact"][name]
            elif name in plain[0]["alloc"]:
                value = statistics.median(r["alloc"][name] for r in plain)
            elif name in plain[0]["wall"]:
                value = fastest(plain, "wall", name)
            else:
                value = micro.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
        t = traced_reps[0]
        print(f"program spans by category: {json.dumps(t['program_spans'])}, "
              f"dropped {t['program_spans_dropped']}", file=sys.stderr)
        for s in t["bench_spans"]:
            print(f"benchmark spans {s['name']}: {s['count']}, sim {s['sim_ns']} ns, "
                  f"wall {s['wall_ns']} ns", file=sys.stderr)
        all_reps = reps

    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps) + checks.failed
    for name, m in metrics.items():
        print(f"{workload:>10} {name:<44} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"{workload}: {len(all_reps)} repetitions in {time.time() - t_start:.1f} s",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
