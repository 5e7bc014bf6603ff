#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 1]

Run from the root of a checkout.  Each set runs every workload --runs
times, each run with its own seed (set 1 uses seeds seed0.., set 2
seed0+1000..), interleaving the workloads.  For every end-to-end metric
it prints each set's median and quartiles, the spread (q3 - q1) / median,
and whether

- every spread is within the metric's bound,
- set 2's median is not worse than set 1's by more than the bound,
- the share of failed operations is the same in every run.

Then it runs the traced benchmark twice per workload on one seed and
checks that every count metric repeats exactly.  The results go to
perfbench/_work/steady.json; the exit code is 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    results = {w: [[], []] for w in workloads}
    for s in range(2):
        for i in range(args.runs):
            seed = args.seed0 + 1000 * s + i
            for w in workloads:
                t0 = time.perf_counter()
                res = run_once(bench, w, seed, 0)
                res["wall_s"] = time.perf_counter() - t0
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: correct={res['correct']} "
                      f"{res['failed']}/{res['attempted']} failed, {res['wall_s']:.1f} s", flush=True)

    ok = True
    report = {}
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        report[w] = {"failed_shares": sorted(str(x) for x in shares), "correct": correct, "metrics": {}}
        print(f"\n{w}: correct={correct}, failed share(s) {', '.join(map(str, sorted(shares)))}")
        ok &= correct and len(shares) == 1
        for m in metrics:
            name = m["name"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs_s]) for runs_s in results[w]]
            spread_ok = all(x["spread"] <= m["bound"] for x in sets)
            shift = worse_by(sets[0]["median"], sets[1]["median"], m["better"])
            shift_ok = shift <= m["bound"]
            ok &= spread_ok and shift_ok
            report[w]["metrics"][name] = {"sets": sets, "shift": shift, "bound": m["bound"],
                                          "spread_ok": spread_ok, "shift_ok": shift_ok}
            cells = "  ".join(
                f"med {x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] spread {x['spread']:.3f}"
                for x in sets
            )
            print(f"  {name:16s} {m['unit']:4s} {cells}  shift {shift:+.3f} bound {m['bound']}"
                  f"{'' if spread_ok and shift_ok else '  <-- OUTSIDE BOUND'}")

    print("\ntraced runs, counts must repeat:")
    count_units = {m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")}
    for w in workloads:
        a, b = (run_once(bench, w, args.seed0, 1) for _ in range(2))
        counts = {n: a["metrics"][n]["value"] for n in count_units}
        same = counts == {n: b["metrics"][n]["value"] for n in count_units}
        ok &= same and a["correct"] and b["correct"]
        report[w]["trace"] = {"counts_repeat": same, "metrics": a["metrics"]}
        print(f"  {w}: counts repeat {same}, overhead "
              f"{a['metrics']['trace.overhead_pct']['value']:.1f}% / "
              f"{b['metrics']['trace.overhead_pct']['value']:.1f}%")

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "steady.json"), "w") as fh:
        json.dump({"ok": ok, "report": report, "runs": results}, fh, indent=1)
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
