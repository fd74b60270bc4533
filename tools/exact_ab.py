#!/usr/bin/env python3
"""Check that two checkouts simulate exactly the same runs of the benchmark.

    python3 tools/exact_ab.py PARENT CHANGE

Builds `perfbench/main.exe` in the PARENT and the CHANGE checkout with
dune, then runs `perfbench/main.exe --workload W --seed S --trace 0` in
both for every workload of CHANGE's BENCHMARK.json and the seeds 1, 2, 7
and 42.  Under one seed a run is bit-reproducible, so a change that
preserves the simulated behaviour leaves every compared value identical:
the `digest`, the `fingerprint` (trace hash, steps, ops, samples), the
`attempted` and `failed` op counts and every key of the `exact` block.
Wall-clock and allocation figures are not compared.

Prints one line per workload and seed, and under it each differing key
with both values.  The script reads both checkouts and writes nothing;
dune builds each checkout.  Exit status: 0 when every compared value is
identical, 1 on any difference, 2 on a usage or build error or a run
that printed no result.
"""

import json
import os
import subprocess
import sys

USAGE = "usage: exact_ab.py PARENT CHANGE"
SEEDS = (1, 2, 7, 42)
TOP_KEYS = ("digest", "fingerprint", "attempted", "failed")


def die(msg):
    print(f"exact_ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(checkout):
    r = subprocess.run(["dune", "build", "--root", checkout, "--display", "quiet",
                        "./perfbench/main.exe"], cwd=checkout)
    if r.returncode != 0:
        die(f"{checkout}: build failed")


def run(checkout, workload, seed):
    exe = os.path.join(checkout, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr[-4000:])
        die(f"{checkout}: {workload} seed {seed} printed no result (exit {p.returncode})")
    return json.loads(lines[-1])


def values(result):
    """The compared values of one run, by key."""
    v = {k: result.get(k) for k in TOP_KEYS}
    v.update({f"exact.{k}": x for k, x in result.get("exact", {}).items()})
    return v


def main():
    if len(sys.argv) != 3:
        die(USAGE)
    parent, change = (os.path.abspath(d) for d in sys.argv[1:])
    for d in (parent, change):
        if not os.path.isfile(os.path.join(d, "perfbench", "main.ml")):
            die(f"{d} has no perfbench/main.ml\n{USAGE}")
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for d in (parent, change):
        build(d)
    differ = 0
    for workload in workloads:
        for seed in SEEDS:
            a = values(run(parent, workload, seed))
            b = values(run(change, workload, seed))
            keys = sorted(set(a) | set(b))
            moved = [k for k in keys if a.get(k) != b.get(k)]
            print(f"{workload} seed {seed}: "
                  f"{'identical' if not moved else f'{len(moved)} of {len(keys)} values differ'}")
            for k in moved:
                print(f"  {k}: parent {a.get(k)!r}, change {b.get(k)!r}")
            differ += bool(moved)
    print(f"{differ} of {len(workloads) * len(SEEDS)} runs differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
