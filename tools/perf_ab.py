#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between two checkouts.

    python3 tools/perf_ab.py PARENT CHANGE --workload W --pairs N --seconds S --seed0 K

Runs `perfbench/run.py --workload W --seed s --seconds S --trace 0` in
the PARENT and the CHANGE checkout on the N shared seeds K, K+1, ...,
K+N-1, one pair per seed.  The side that runs first alternates from pair
to pair, so a slow spell of the host does not always land on one side.

For every end-to-end metric of CHANGE's BENCHMARK.json it prints each
side's median and quartiles over the pairs, the number of pairs the
change won (better by the metric's `better` field) and the number in
which both sides reported the very same value.
It then prints two verdicts per metric:

  gain   the change won at least 9 of every 10 pairs, and its median is
         better than the parent's by more than the parent's interquartile
         range;
  bound  the change's median is not worse than the parent's by more than
         the metric's `bound` (a fraction of the parent's median).

Quartiles are Python's `statistics.quantiles` (exclusive method).  The
script reads both checkouts and writes nothing; run.py builds each
checkout with dune.  Exit status: 0 when every run was correct with no
failed operation, 1 otherwise, 2 on a usage error or a run that printed
no result.
"""

import json
import math
import os
import statistics
import subprocess
import sys

USAGE = ("usage: perf_ab.py PARENT CHANGE --workload W --pairs N --seconds S --seed0 K")


def die(msg):
    print(f"perf_ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    if len(argv) != 10:
        die(USAGE)
    parent, change, flags = argv[0], argv[1], argv[2:]
    opts = {}
    for key, val in zip(flags[::2], flags[1::2]):
        if key not in ("--workload", "--pairs", "--seconds", "--seed0") or key in opts:
            die(f"unexpected argument {key!r}\n{USAGE}")
        opts[key] = val
    try:
        pairs, seconds, seed0 = int(opts["--pairs"]), int(opts["--seconds"]), int(opts["--seed0"])
    except (KeyError, ValueError):
        die(USAGE)
    if pairs < 1:
        die("--pairs must be at least 1")
    for d in (parent, change):
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            die(f"{d} has no perfbench/run.py")
    return parent, change, opts["--workload"], pairs, seconds, seed0


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stderr.write(p.stderr[-4000:])
        die(f"{checkout}: seed {seed} printed no result (exit {p.returncode})")
    result = json.loads(lines[-1])
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    parent, change, workload, pairs, seconds, seed0 = parse_args(sys.argv[1:])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = {"parent": parent, "change": change}
    results = {"parent": [], "change": []}
    for i in range(pairs):
        seed = seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(sides[side], workload, seed, seconds)
            results[side].append(r)
            print(f"pair {i + 1}/{pairs} seed {seed} {side}: correct {r['correct']}, "
                  f"failed {r['failed']} of {r['attempted']}", file=sys.stderr)

    bad = [(side, seed0 + i) for side, rs in results.items() for i, r in enumerate(rs)
           if not r["correct"] or r["failed"] != 0]
    need = math.ceil(0.9 * pairs)
    print(f"{workload}: {pairs} alternating pairs, seeds {seed0}..{seed0 + pairs - 1}, "
          f"{seconds} s per run")
    print(f"{'metric':<14} {'parent median (q1, q3)':>32} {'change median (q1, q3)':>32} "
          f"{'wins':>7} {'same':>7}  {'gain':<4}  bound")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        same = sum(1 for a, b in zip(p, c) if a == b)
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        gap = pm - cm if lower else cm - pm
        gain = wins >= need and gap > p3 - p1
        worse = -gap / abs(pm) if pm else 0.0
        bound = worse <= m["bound"]
        print(f"{name:<14} {f'{pm:.6g} ({p1:.6g}, {p3:.6g})':>32} "
              f"{f'{cm:.6g} ({c1:.6g}, {c3:.6g})':>32} {f'{wins}/{pairs}':>7} {f'{same}/{pairs}':>7}  "
              f"{'yes' if gain else 'no':<4}  {'holds' if bound else 'BROKEN'}: "
              f"{-worse:+.2%} better, may be {m['bound']:.0%} worse")
    for side, seed in bad:
        print(f"INCORRECT: {side} seed {seed} was not correct or had failed operations")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
