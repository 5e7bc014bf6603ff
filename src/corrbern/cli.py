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

from . import balance, linsys, oracle
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
from .model import DomainError, GraphPair, ModelParams, child_rng, sample_pair
from .stats import delta_stat, densities
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
    rows = []
    for index, row in enumerate(obj):
        for key in ("p", "rho"):
            if key not in row:
                raise DomainError(f"params row {index} lacks {key!r}")
        rows.append(ModelParams.make(row["p"], row["rho"]))
    return rows


def _bits(vec) -> str:
    return "".join(str(int(b)) for b in vec)


def cmd_sample(args) -> int:
    params = _load_params(args.params_file)
    lines = ["sample_id,x_bits,y_bits"]
    for i in range(args.n):
        pair = sample_pair(params, child_rng(args.seed, i))
        lines.append(f"{i},{_bits(pair.x)},{_bits(pair.y)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def parse_sample_file(text: str) -> list[tuple[int, GraphPair]]:
    lines = text.splitlines()
    if not lines or lines[0] != "sample_id,x_bits,y_bits":
        raise DomainError("missing or malformed sample file header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 3 or not all(
            c in "01" for c in cells[1] + cells[2]
        ) or len(cells[1]) != len(cells[2]):
            raise DomainError(f"malformed sample row at line {lineno}")
        out.append(
            (
                int(cells[0]),
                GraphPair(
                    tuple(int(c) for c in cells[1]),
                    tuple(int(c) for c in cells[2]),
                ),
            )
        )
    return out


def cmd_estimate(args) -> int:
    with open(args.sample_file) as fh:
        samples = parse_sample_file(fh.read())
    lines = ["sample_id,delta,d_x,d_y,d_xy,d_cap,str,str_bar,str_prime"]
    for sample_id, pair in samples:
        d = densities(pair)
        cells = [
            str(sample_id),
            str(delta_stat(pair)),
            *(
                format(v, ".6g")
                for v in (
                    d.d_x,
                    d.d_y,
                    d.d_xy,
                    d.d_cap,
                    balance.STAT_STR(pair),
                    balance.STAT_STR_BAR(pair),
                    balance.STAT_STR_PRIME(pair),
                )
            ),
        ]
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
