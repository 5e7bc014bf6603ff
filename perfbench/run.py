#!/usr/bin/env python3
"""Benchmark of the corrbern CLI, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corrbern checkout.  The program is imported from
the checkout's `src/`; every operation is one `corrbern.cli.main(argv)`
call on inputs made from --seed, and every output is checked against the
independent reference in reference.py.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; set-up is timed in this process
and in SETUP_PROBES fresh processes spread over the run (after each
SETUP_PROBES-th of the measured time), and setup_s is the median, so it
averages over the host's drift as the latencies do.  --trace 1 alternates
untraced and traced rounds, reports the per-layer metrics of the traced
ones (see layers.py) and writes the spans to
perfbench/_work/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# Enough calls that the 75th percentile has ten samples beyond it.
MIN_CALLS = 40
TAIL_PERCENTILE = 75
SETUP_PROBES = 3

# The program's parallelism is the experiment pool (os.cpu_count() threads).
# OpenBLAS would add its own helper threads, which spin beside the pool's
# threads on the same cores: on 2 vCPUs they double CPU time and make
# `experiment --n 8` slower and less steady.  Set before numpy loads; the
# set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# The benchmark's own modules load numpy, so set-up times exclude its import.
import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """corrbern's CLI from this checkout, never from an installed copy."""
    sys.path.insert(0, SRC)
    cli = importlib.import_module("corrbern.cli")
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "corrbern"):
        raise SystemExit(f"corrbern imported from {where}, not from {SRC}")
    return cli


class Runner:
    """Calls the CLI in this process, with stdout captured when asked."""

    def __init__(self, workload, cli, tracer=None):
        self.workload = workload
        self.cli = cli
        self.tracer = tracer

    def call(self, argv, capture):
        """(exit code, captured stdout) of one CLI call.  A call that raises
        reports the exception in place of the exit code, so the check fails
        it and the run goes on."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf) if capture else contextlib.nullcontext():
            try:
                if self.tracer is not None and self.tracer.active:
                    with self.tracer.span("cli.main"):
                        rc = self.cli.main(argv)
                else:
                    rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - reported as a wrong output
                rc = repr(exc)
        return rc, buf.getvalue()

    def timed(self, k):
        argv = self.workload.argv(k)
        t0 = time.perf_counter()
        rc, out = self.call(argv, self.workload.capture)
        return time.perf_counter() - t0, rc, out


def setup(workload_cls, seed, workdir):
    """Import, make inputs and warm up: the timed set-up.  Returns the
    workload, the CLI module and the set-up time in seconds."""
    workload = workload_cls(seed, workdir, ROOT)
    t0 = time.perf_counter()
    cli = import_program()
    runner = Runner(workload, cli)
    workload.setup(runner.call)
    return workload, cli, time.perf_counter() - t0


def setup_probe(workload_name, seed):
    """Set-up time of a fresh process, measured in that process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(runner, seconds, trace_on=None, trace_off=None, probe=None):
    """Whole rounds until the timed calls add up to `seconds` and number at
    least MIN_CALLS.  Given trace_on and trace_off, rounds alternate
    between untraced and traced, and both kinds must reach those limits.
    Given probe, it is called between rounds once each of the first
    SETUP_PROBES - 1 shares of `seconds` has been measured.

    Returns the latencies by traced-or-not and the outcome counts."""
    workload = runner.workload
    tracer = runner.tracer
    lat = {False: [], True: []}
    outcome = {"attempted": 0, "failed": 0, "wrong": []}
    kinds = (False, True) if trace_on else (False,)
    k = 0
    traced = False
    probes = 0
    while True:
        for _ in range(workload.round_size):
            if traced:
                tracer.call_id = k
            elapsed, rc, out = runner.timed(k)
            if traced:
                tracer.call_id = tracing.SETUP_CALL
            lat[traced].append(elapsed)
            outcome["attempted"] += 1
            try:
                ok = workload.check(k, rc, out)
            except Exception as exc:  # noqa: BLE001 - any check failure is reported
                outcome["wrong"].append(f"call {k}: {exc!r}")
                ok = False
            outcome["failed"] += not ok
            k += 1
        if probe is not None and probes < SETUP_PROBES - 1:
            if sum(lat[False]) >= seconds * (probes + 1) / SETUP_PROBES:
                probe()
                probes += 1
        if all(sum(lat[t]) >= seconds and len(lat[t]) >= MIN_CALLS for t in kinds):
            break
        if trace_on:
            traced = not traced
            trace_on() if traced else trace_off()
    if traced:
        trace_off()
    return lat, outcome


def end_to_end(lat, setup_s):
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000.0, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1000.0, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "corrbern", "cli.py")):
        print(f"no corrbern sources under {SRC}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            _, _, setup_s = setup(workload_cls, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir) -> int:
    wrong = []
    if args.trace:
        tracer = tracing.Tracer()
        workload = workload_cls(args.seed, workdir, ROOT)
        cli = import_program()
        modules = {
            name: importlib.import_module(f"corrbern.{name}")
            for name in ("cli", "experiment", "stats", "balance", "oracle", "linsys", "verify")
        }
        seen_tables = {}

        def trace_on():
            layers.install(tracer, modules, seen_tables, workload.per_pair_estimates)

        trace_off = tracer.uninstall

        runner = Runner(workload, cli, tracer)
        trace_on()
        workload.setup(runner.call)
        trace_off()
    else:
        workload, cli, setup_s = setup(workload_cls, args.seed, workdir)
        setup_times = [setup_s]
        runner = Runner(workload, cli)
    try:
        workload.check_setup()
    except Exception as exc:  # noqa: BLE001 - any check failure is reported
        wrong.append(f"set-up: {exc!r}")

    if args.trace:
        lat, outcome = run_rounds(runner, args.seconds, trace_on, trace_off)
        overhead = (statistics.median(lat[True]) / statistics.median(lat[False]) - 1.0) * 100.0
        values = layers.metrics(tracer, len(lat[True]), overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
    else:
        def probe():
            setup_times.append(setup_probe(args.workload, args.seed))

        lat, outcome = run_rounds(runner, args.seconds, probe=probe)
        probe()
        metrics = end_to_end(lat[False], statistics.median(setup_times))

    wrong += outcome["wrong"]
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
