"""Command-line interface.

Subcommands: sample, estimate, exact, experiment, degenerate, verify.
All randomized commands are deterministic given --seed; replicate r of
an experiment uses a child stream derived from (seed, r).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import linsys
from .balance import str_class_moments, str_prime_counts
from .experiment import (
    SPEC_VERSION,
    ExperimentConfig,
    MODES,
    exact_report,
    rows_to_csv_lines,
    run_experiment,
    summarize,
    summary_to_json,
)
from .model import CapacityError, DomainError, ModelParams
from .model import child_rng, sample_pair
from .model import GraphPair  # noqa: F401  kept: perfbench/layers.py traces cli.GraphPair
from .stats import Counts, count_densities, counts_of_bits, delta_stat, str_counts
from .stats import densities  # noqa: F401  kept: perfbench/layers.py traces cli.densities
from .verify import run_checks


def _load_params(path: str) -> ModelParams:
    with open(path) as fh:
        return ModelParams.from_json(fh.read())


def _load_params_rows(path: str) -> list[ModelParams]:
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "rows" in obj:
        obj = obj["rows"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise DomainError("params file holds neither a row object nor a list of rows")
    rows = []
    for index, row in enumerate(obj):
        if not isinstance(row, dict):
            raise DomainError(f"params row {index} is not an object")
        for key in ("p", "rho"):
            if key not in row:
                raise DomainError(f"params row {index} lacks {key!r}")
        rows.append(ModelParams.make(row["p"], row["rho"]))
    return rows


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(vec: tuple[int, ...]) -> str:
    """A tuple of 0/1 ints as a string of '0'/'1'."""
    return bytes(vec).translate(_BIT_CHARS).decode("ascii")


def cmd_sample(args) -> int:
    params = _load_params(args.params_file)
    lines = ["sample_id,x_bits,y_bits"]
    for i in range(args.n):
        pair = sample_pair(params, child_rng(args.seed, i))
        lines.append(f"{i},{_bits(pair.x)},{_bits(pair.y)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def parse_sample_file(text: str) -> list[tuple[int, Counts]]:
    """(sample id, count state) per row of a sample file.

    A malformed row raises DomainError naming its line.  Rows are checked with C-level string operations before `counts_of_bits`
    reads them: `int(s, 2)` alone would accept '0b1', '1_0', ' 1' and '+1'.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "sample_id,x_bits,y_bits":
        raise DomainError("missing or malformed sample file header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        x, y = cells[1:] if len(cells) == 3 else ("", "")
        if not x or len(x) != len(y) or (x + y).strip("01"):
            raise DomainError(f"malformed sample row at line {lineno}")
        try:
            sample_id = int(cells[0])
        except ValueError:
            raise DomainError(f"malformed sample id at line {lineno}") from None
        out.append((sample_id, counts_of_bits(x, y)))
    return out


def cmd_estimate(args) -> int:
    with open(args.sample_file) as fh:
        samples = parse_sample_file(fh.read())
    lines = ["sample_id,delta,d_x,d_y,d_xy,d_cap,str,str_bar,str_prime"]
    for sample_id, c in samples:
        values = (
            *count_densities(c)[:4],
            str_counts(c),
            str_class_moments(c.n, c.n11, c.delta)[0],
            str_prime_counts(c.n, c.n11, c.delta),
        )
        cells = [str(sample_id), str(c.delta), *(format(v, ".6g") for v in values)]
        lines.append(",".join(cells))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_exact(args) -> int:
    params = _load_params(args.params_file)
    report = exact_report(params)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_experiment(args) -> int:
    params_rows = None
    if args.params_file:
        params_rows = tuple(_load_params_rows(args.params_file))
    config = ExperimentConfig(
        mode=args.mode,
        replicates=len(params_rows) if params_rows else args.replicates,
        n_components=args.n,
        base_seed=args.seed,
        params_rows=params_rows,
    )
    rows = run_experiment(config)
    _write(args.out, "\n".join(rows_to_csv_lines(rows)) + "\n")
    summary = summarize(rows)
    summary["mode"] = config.mode
    summary["base_seed"] = config.base_seed
    summary["n_components"] = config.n_components
    summary_path = args.out + ".summary.json" if args.out else None
    _write(summary_path, summary_to_json(summary) + "\n")
    return 0


def cmd_degenerate(args) -> int:
    system = linsys.build_degenerate_system(args.mu)
    delta_values = [float(delta_stat(z)) for z in system.points]
    g = system.expectation_coeffs(delta_values)
    p_values = [float(v) for v in args.p_values.split(",")]
    solutions = []
    residuals = []
    variances = []
    for p in p_values:
        s = linsys.degenerate_min_variance(system, g, p)
        weights = system.point_probs(p)
        mean = float(weights @ s)
        solutions.append([float(v) for v in s])
        residuals.append(float(np.max(np.abs(system.m @ s - g))))
        variances.append(float(weights @ (s * s)) - mean * mean)
    max_abs_diff = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            diff = float(
                np.max(np.abs(np.array(solutions[i]) - np.array(solutions[j])))
            )
            max_abs_diff = max(max_abs_diff, diff)
    report = {
        "spec_version": SPEC_VERSION,
        "mu": args.mu,
        "p_values": p_values,
        "target_coefficients": [float(v) for v in g],
        "solutions": solutions,
        "variances": variances,
        "residuals": residuals,
        "max_abs_diff": max_abs_diff,
    }
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(level=args.level)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrbern",
        description="Correlated Bernoulli pair model: sampling, estimators, "
        "exact tables, and unbiasedness certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw sample pairs to CSV")
    p.add_argument("--params-file", required=True)
    p.add_argument("--n", type=int, default=100, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="evaluate estimators on a sample file")
    p.add_argument("sample_file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="exact moments for one parameter point")
    p.add_argument("--params-file", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("experiment", help="replicated exact comparison tables")
    p.add_argument("--mode", choices=MODES, default="uniform-both")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--n", type=int, default=6, help="components per vector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--params-file",
        default=None,
        help="JSON list of parameter rows to inject instead of drawing",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "degenerate",
        help="fixed-mean minimum-variance unbiased solutions for E(Delta)",
    )
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--p-values", default="0.15,0.35")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("verify", help="run the internal identity/consistency suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CapacityError, json.JSONDecodeError, OSError) as exc:
        print(f"corrbern: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
