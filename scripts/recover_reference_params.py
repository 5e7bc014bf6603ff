#!/usr/bin/env python3
"""Recover parameter rows that reproduce printed experiment outcomes.

The printed tables live in tests/reference_tables.py.  All six printed
columns are symmetric functions of the per-row parameters and are
printed at 4 decimals, so a parameter row is accepted only if every
column matches within 5e-5, i.e. is consistent with the printed
rounding.

- rho-zero and p-half: the parameter draws were never printed.  A row
  is recovered (up to permutation, which leaves every column invariant)
  by least-squares inversion of the exact experiment map from seeded
  random starts.
- uniform-both: the parameter draws were printed at 4 decimals, so each
  entry is only known to +-5e-5.  The search is bounded to the box of
  half-width 4.9e-5 around the printed row and starts at the printed
  row; of the printed row and the least-squares point, the one with the
  smaller maximum column error is kept.

Runs are deterministic: every mode seeds its random starts from a fixed
integer.  Accepted rows are emitted as JSON, rounded to the 10 decimals
stored in tests/reference_tables.py; each mode's list is a params list
suitable for `corrbern experiment --params-file`.

    PYTHONPATH=src python scripts/recover_reference_params.py > rows.json
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from corrbern.experiment import exact_experiment_row
from corrbern.model import ModelParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_tables import (  # noqa: E402
    P_HALF_EXPECTED,
    RHO_ZERO_EXPECTED,
    UNIFORM_BOTH_EXPECTED,
    UNIFORM_BOTH_PARAMS,
)

N = 6
TOL = 5e-5
BOX = 4.9e-5  # inside the 5e-5 rounding box, so the bound holds exactly
SEED_OFFSETS = {"rho-zero": 77, "p-half": 59}
LSQ = dict(xtol=1e-14, ftol=1e-14, gtol=1e-14)


def columns(params):
    r = exact_experiment_row(params)
    return np.array(
        [r.e_str, r.e_strprime, r.rho_t, r.var_str, r.var_strbar, r.var_strprime]
    )


def make_params(free, mode):
    free = np.clip(free, 1e-6, 1 - 1e-6)
    if mode == "rho-zero":
        return ModelParams.make(free, np.zeros(N))
    return ModelParams.make(np.full(N, 0.5), free)


def recover_row(target, mode, seed, starts=200):
    target = np.array(target)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(starts):
        x0 = rng.uniform(0.05, 0.95, size=N)
        sol = least_squares(
            lambda v: columns(make_params(v, mode)) - target,
            x0,
            bounds=(1e-6, 1 - 1e-6),
            **LSQ,
        )
        err = np.max(np.abs(sol.fun))
        if best is None or err < best[0]:
            best = (err, sol.x)
        if err <= TOL:
            break
    return best


def recover_published_row(p, rho, target):
    """Best row inside the BOX around a published (p, rho) row."""
    target = np.array(target)
    center = np.concatenate([p, rho])

    def residual(v):
        return columns(ModelParams.make(v[:N], v[N:])) - target

    sol = least_squares(residual, center, bounds=(center - BOX, center + BOX), **LSQ)
    return min(
        ((np.max(np.abs(residual(v))), v) for v in (center, sol.x)),
        key=lambda cand: cand[0],
    )


def emit(mode, i, err, params):
    ok = err <= TOL
    print(
        f"{mode} row {i + 1}: max column error {err:.2e} "
        f"{'OK' if ok else 'NOT RECOVERED'}",
        file=sys.stderr,
    )
    return {
        "p": [round(v, 10) for v in params.p],
        "rho": [round(v, 10) for v in params.rho],
        "max_err": float(err),
    }


def main():
    rows = {"uniform-both": [], "rho-zero": [], "p-half": []}
    for i, ((p, rho), target) in enumerate(
        zip(UNIFORM_BOTH_PARAMS, UNIFORM_BOTH_EXPECTED)
    ):
        err, v = recover_published_row(p, rho, target)
        params = ModelParams.make(v[:N], v[N:])
        rows["uniform-both"].append(emit("uniform-both", i, err, params))
    for mode, targets in (("rho-zero", RHO_ZERO_EXPECTED), ("p-half", P_HALF_EXPECTED)):
        for i, target in enumerate(targets):
            err, free = recover_row(target, mode, seed=1000 * i + SEED_OFFSETS[mode])
            params = make_params(np.sort(free), mode)
            rows[mode].append(emit(mode, i, err, params))
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
