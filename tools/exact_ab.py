#!/usr/bin/env python3
"""Check that two checkouts simulate exactly the same runs.

    python3 tools/exact_ab.py PARENT CHANGE

Builds `perfbench/main.exe`, `bench/main.exe`, `bin/sudctl.exe` and the
eight `examples/*.exe` in the PARENT and the CHANGE checkout with dune.
It then runs in both:

  * `perfbench/main.exe --workload W --seed S --trace 0` for every
    workload of CHANGE's BENCHMARK.json and the seeds 1, 2, 7 and 42;
  * the two fixed-seed soaks, `bench/main.exe soak` and
    `bench/main.exe blk-soak smoke`;
  * `bench/main.exe upgrade-soak`, the live upgrades, poisoned
    standbys and double failovers of a supervised NVMe under load;
  * `bench/main.exe blkperf`, the block path's durable IOPS at queue
    depths 1, 4 and 16 and its recovery latency per storage fault
    class;
  * `bench/main.exe fuzz` and `bench/main.exe upgrade`, which reach
    supervised net recovery through malicious drivers and a protocol
    crash loop, and which read each checkout's own
    `bench/baseline.json`, copied into their working directory;
  * `sudctl security`, the attack scenarios and supervised recoveries;
  * `sudctl trace smoke`, which exports a traced recovery as JSONL,
    reads it back and looks for the causal chain in what it read;
  * every example under `examples/`, each a short scripted scenario
    (the USB disk and keyboard, the wifi roam, the audio stream, the
    bus manager's delegation among them).

Under one seed a run is bit-reproducible, so a change that preserves the
simulated behaviour leaves every compared value identical.  For a
benchmark run those are the `digest`, the `fingerprint` (trace hash,
steps, ops, samples), the `attempted` and `failed` op counts and every
key of the `exact` block; wall-clock and allocation figures are not
compared.  For a soak, blkperf, the trace smoke and an example they are
every line of its standard output and its exit status.

Prints one line per run (12 benchmark runs with the 3 workloads, then 3
soaks, blkperf, fuzz, upgrade, security, the smoke and the 8 examples:
28 in all), and under it each differing key or line with both values.
The script writes nothing to either checkout: dune builds each one, and
every whole-output run happens in a temporary directory, which takes its
traces/ output.  The soaks take about 10 s per checkout, fuzz about
11 s, blkperf about 3 s and the eight examples well under 1 s together.
Exit status: 0 when every compared value is identical, 1 on any
difference, 2 on a usage or build error or a benchmark run that printed
no result.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

USAGE = "usage: exact_ab.py PARENT CHANGE"
SEEDS = (1, 2, 7, 42)
TOP_KEYS = ("digest", "fingerprint", "attempted", "failed")
# Runs compared by their whole output: an executable under
# _build/default and its arguments.
OUTPUT_RUNS = (("bench/main.exe", "soak"), ("bench/main.exe", "blk-soak", "smoke"),
               ("bench/main.exe", "upgrade-soak"), ("bench/main.exe", "blkperf"),
               ("bench/main.exe", "fuzz"), ("bench/main.exe", "upgrade"),
               ("bin/sudctl.exe", "security"), ("bin/sudctl.exe", "trace", "smoke"),
               *((f"examples/{e}.exe",) for e in (
                   "quickstart", "malicious_driver", "driver_restart", "wifi_roaming",
                   "sound_stream", "usb_disk", "click_router", "delegation_demo")))
BASELINE = os.path.join("bench", "baseline.json")


def die(msg):
    print(f"exact_ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(checkout):
    exes = sorted({f"./{exe}" for exe, *_ in OUTPUT_RUNS})
    r = subprocess.run(["dune", "build", "--root", checkout, "--display", "quiet",
                        "./perfbench/main.exe", *exes],
                       cwd=checkout)
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


def output(checkout, cmd):
    """The stdout lines and exit status of one of OUTPUT_RUNS, run in a
    fresh temporary directory that holds the checkout's bench baseline."""
    exe, *args = cmd
    exe = os.path.join(checkout, "_build", "default", exe)
    with tempfile.TemporaryDirectory() as cwd:
        os.mkdir(os.path.join(cwd, "bench"))
        shutil.copy(os.path.join(checkout, BASELINE), os.path.join(cwd, BASELINE))
        p = subprocess.run([exe, *args], cwd=cwd, capture_output=True, text=True)
    return p.stdout.splitlines(), p.returncode


def output_diff(parent, change, cmd):
    """Each compared output value that differs, as (what, parent, change)."""
    (a, a_rc), (b, b_rc) = output(parent, cmd), output(change, cmd)
    moved = [(f"line {i}", x, y)
             for i, (x, y) in enumerate(itertools.zip_longest(a, b), start=1) if x != y]
    if a_rc != b_rc:
        moved.append(("exit status", a_rc, b_rc))
    return moved, max(len(a), len(b))


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
    for cmd in OUTPUT_RUNS:
        moved, n_lines = output_diff(parent, change, cmd)
        print(f"{' '.join(cmd)}: "
              f"{'identical' if not moved else f'{len(moved)} of {n_lines} lines differ'}")
        for what, x, y in moved:
            print(f"  {what}: parent {x!r}, change {y!r}")
        differ += bool(moved)
    print(f"{differ} of {len(workloads) * len(SEEDS) + len(OUTPUT_RUNS)} runs differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
