"""Exact replicated experiments comparing str, balanced str, and modified str.

Each replicate draws model parameters, then computes expectations,
variances and MSEs of the three alignment-strength statistics exactly.
Every statistic of the family depends on a sample point only through
its count state (n11, Delta): the number of both-one components and of
disagreements; str itself also depends on how Delta splits into (1, 0)
and (0, 1), which given Delta is Binomial(Delta, 1/2) at every
parameter point.  So the class means of str, str^2 and str_prime are
tabulated once per N on the (N+1) x (N+1) grid of count states, and
each replicate only builds the law of the states, by a dynamic
programme over components (Hong 2013, Comput. Stat. Data Anal. 59).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .balance import str_class_moments, str_prime_counts
from .model import CapacityError, DomainError, ModelParams, child_rng
from .stats import CONVENTION_VALUE, param_functionals

SPEC_VERSION = "1"
MODES = ("uniform-both", "rho-zero", "p-half")


@dataclass(frozen=True)
class ExperimentRow:
    replicate_index: int
    params: ModelParams
    e_str: float
    e_strprime: float
    rho_t: float
    var_str: float
    var_strbar: float
    var_strprime: float
    mse_strbar: float
    mse_strprime: float


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    replicates: int = 200
    n_components: int = 6
    base_seed: int = 0
    params_rows: tuple[ModelParams, ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")


# The table build is O(N^3) Python arithmetic: 0.7-0.9 s at N = 200 (2-core x86).
MAX_COMPONENTS = 200


@dataclass(frozen=True)
class CountTables:
    """Per-count-state values, indexed [n11, Delta]; zero where n11 + Delta > n."""

    n: int
    str_mean: np.ndarray  # class mean of str, which is str_bar
    str_sq_mean: np.ndarray  # class mean of str^2
    str_prime: np.ndarray


@lru_cache(maxsize=4)
def sample_space_tables(n: int) -> CountTables:
    """Parameter-independent tables over the count states (n11, Delta) of N = n."""
    if n > MAX_COMPONENTS:
        raise CapacityError(
            f"exact engine bound is n_components <= {MAX_COMPONENTS}, got {n}"
        )
    str_mean = np.zeros((n + 1, n + 1))
    str_sq_mean = np.zeros((n + 1, n + 1))
    str_prime = np.zeros((n + 1, n + 1))
    for n11 in range(n + 1):
        for delta in range(n + 1 - n11):
            str_mean[n11, delta], str_sq_mean[n11, delta] = str_class_moments(
                n, n11, delta
            )
            str_prime[n11, delta] = str_prime_counts(n, n11, delta)
    return CountTables(n, str_mean, str_sq_mean, str_prime)


def point_probability_vector(params: ModelParams) -> np.ndarray:
    """Law of the count states: entry [n11, Delta] is P(n11, Delta).

    Built by one update per component with its triple (q1, q0, 2*qstar);
    the two ordered disagreements are merged, as Delta does not tell them
    apart.
    """
    n = params.n_components
    law = np.zeros((n + 1, n + 1))
    law[0, 0] = 1.0
    for cell in params.cells():
        step = cell.q0 * law
        step[1:, :] += cell.q1 * law[:-1, :]
        step[:, 1:] += 2.0 * cell.qstar * law[:, :-1]
        law = step
    return law


def _contract(
    params: ModelParams, tables: CountTables, law: np.ndarray, replicate_index: int
) -> ExperimentRow:
    """Exact moments of the three statistics: the tables contracted against the law."""
    rho_t = param_functionals(params).rho_t

    def moments(values, squares):
        mean = float(np.vdot(law, values))
        return mean, max(float(np.vdot(law, squares)) - mean * mean, 0.0)

    e_str, var_str = moments(tables.str_mean, tables.str_sq_mean)
    _, var_strbar = moments(tables.str_mean, tables.str_mean**2)
    e_strprime, var_strprime = moments(tables.str_prime, tables.str_prime**2)
    return ExperimentRow(
        replicate_index=replicate_index,
        params=params,
        e_str=e_str,
        e_strprime=e_strprime,
        rho_t=rho_t,
        var_str=var_str,
        var_strbar=var_strbar,
        var_strprime=var_strprime,
        mse_strbar=var_strbar + (e_str - rho_t) ** 2,
        mse_strprime=var_strprime + (e_strprime - rho_t) ** 2,
    )


def exact_experiment_row(params: ModelParams, replicate_index: int = 0) -> ExperimentRow:
    """All exact table quantities for one parameter draw, from the count-state law."""
    tables = sample_space_tables(params.n_components)
    return _contract(params, tables, point_probability_vector(params), replicate_index)


def draw_params(mode: str, n: int, rng: np.random.Generator) -> ModelParams:
    if mode == "uniform-both":
        return ModelParams.make(rng.random(n), rng.random(n))
    if mode == "rho-zero":
        return ModelParams.make(rng.random(n), np.zeros(n))
    if mode == "p-half":
        return ModelParams.make(np.full(n, 0.5), rng.random(n))
    raise DomainError(f"unknown mode {mode!r}")


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """All replicate rows, in replicate order."""
    if config.params_rows is not None:
        draws = list(config.params_rows)
    else:
        draws = [
            draw_params(
                config.mode,
                config.n_components,
                child_rng(config.base_seed, r),
            )
            for r in range(config.replicates)
        ]
    return [exact_experiment_row(params, r) for r, params in enumerate(draws)]


def summarize(rows: list[ExperimentRow]) -> dict:
    """Replicate-level orderings the experiments track."""
    return {
        "spec_version": SPEC_VERSION,
        "replicates": len(rows),
        "var_str_gt_var_strbar_gt_var_strprime": sum(
            1
            for r in rows
            if r.var_str > r.var_strbar > r.var_strprime
        ),
        "e_str_lt_e_strprime_lt_rho_t": sum(
            1 for r in rows if r.e_str < r.e_strprime < r.rho_t
        ),
        "strprime_less_biased_than_str": sum(
            1
            for r in rows
            if abs(r.e_strprime - r.rho_t) < abs(r.e_str - r.rho_t)
        ),
        "mse_strprime_le_mse_strbar": sum(
            1 for r in rows if r.mse_strprime <= r.mse_strbar
        ),
    }


CSV_HEADER = [
    "replicate",
    "p",
    "rho",
    "e_str",
    "e_strprime",
    "rho_t",
    "var_str",
    "var_strbar",
    "var_strprime",
    "mse_strbar",
    "mse_strprime",
]


def _fmt(v: float) -> str:
    return format(v, ".6g")


def rows_to_csv_lines(rows: list[ExperimentRow]) -> list[str]:
    lines = [",".join(CSV_HEADER)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.replicate_index),
                    ";".join(repr(v) for v in r.params.p),
                    ";".join(repr(v) for v in r.params.rho),
                    _fmt(r.e_str),
                    _fmt(r.e_strprime),
                    _fmt(r.rho_t),
                    _fmt(r.var_str),
                    _fmt(r.var_strbar),
                    _fmt(r.var_strprime),
                    _fmt(r.mse_strbar),
                    _fmt(r.mse_strprime),
                ]
            )
        )
    return lines


def parse_csv_lines(lines: list[str]) -> list[dict]:
    header = lines[0].split(",")
    if header != CSV_HEADER:
        raise DomainError(f"unexpected experiment CSV header: {header}")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {"replicate": int(cells[0])}
        row["p"] = [float(v) for v in cells[1].split(";")]
        row["rho"] = [float(v) for v in cells[2].split(";")]
        for key, cell in zip(CSV_HEADER[3:], cells[3:]):
            row[key] = float(cell)
        out.append(row)
    return out


def exact_report(params: ModelParams) -> dict:
    """Full-precision JSON-ready exact report for one parameter point.

    The count-state law is built once and serves both the moments and
    the mass on the two degenerate states (no component or every
    component both one, with no disagreement), reported so the
    convention's contribution to the str-family expectations is visible.
    """
    n = params.n_components
    func = param_functionals(params)
    tables = sample_space_tables(n)
    law = point_probability_vector(params)
    row = _contract(params, tables, law, 0)
    return {
        "spec_version": SPEC_VERSION,
        "mu": func.mu,
        "sigma2": func.sigma2,
        "rho_H": func.rho_h,
        "rho_T": func.rho_t,
        "E_delta": func.expected_delta,
        "E_str": row.e_str,
        "E_strprime": row.e_strprime,
        "Var_str": row.var_str,
        "Var_strbar": row.var_strbar,
        "Var_strprime": row.var_strprime,
        "MSE_strbar_vs_rhoT": row.mse_strbar,
        "MSE_strprime_vs_rhoT": row.mse_strprime,
        "degenerate_point_probability": float(law[0, 0] + law[n, 0]),
        "convention_value": CONVENTION_VALUE,
    }


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
