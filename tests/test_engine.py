"""The count-state engine of `corrbern.experiment` against enumeration.

`exact_experiment_row` contracts per-state tables against the law of the
count states (n11, Delta).  At small N it must agree with the sample-space
oracle; at N up to the engine bound it must keep the identities that hold
whatever the parameters.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from corrbern import experiment
from corrbern.balance import STAT_STR, STAT_STR_BAR, STAT_STR_PRIME
from corrbern.experiment import (
    MAX_COMPONENTS,
    exact_experiment_row,
    point_probability_vector,
)
from corrbern.model import EdgeCellProbs, ModelParams
from corrbern.oracle import exact_moments
from corrbern.stats import CONVENTION_VALUE, param_functionals


def random_points(n: int, count: int = 3) -> list[ModelParams]:
    rng = np.random.default_rng(1000 + n)
    return [ModelParams.make(rng.random(n), rng.random(n)) for _ in range(count)]


def edge_points(n: int) -> list[ModelParams]:
    """Points with qstar = 0 in some or every component."""
    rng = np.random.default_rng(2000 + n)
    alternating = [float(i % 2) for i in range(n)]
    mixed = [0.0, 1.0, *rng.random(n - 2)] if n > 2 else alternating
    return [
        ModelParams.make([0.0] * n, rng.random(n)),
        ModelParams.make([1.0] * n, rng.random(n)),
        ModelParams.make(alternating, rng.random(n)),
        ModelParams.make(rng.random(n), [1.0] * n),
        ModelParams.make(mixed, [*rng.random(n - 1), 1.0]),
    ]


def worst_gap(params: ModelParams) -> float:
    """Largest gap between the engine's row and the oracle's moments."""
    row = exact_experiment_row(params)
    raw = exact_moments(STAT_STR, params)  # every one of the 4^n points
    bar = exact_moments(STAT_STR_BAR, params)
    prime = exact_moments(STAT_STR_PRIME, params)
    pairs = [
        (row.e_str, raw.mean),
        (row.var_str, raw.variance),
        (row.e_str, bar.mean),
        (row.var_strbar, bar.variance),
        (row.e_strprime, prime.mean),
        (row.var_strprime, prime.variance),
    ]
    return max(abs(a - b) for a, b in pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_row_matches_enumeration(n):
    for params in random_points(n) + edge_points(n):
        assert worst_gap(params) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_half_star_law_is_caught(n, monkeypatch):
    """Negative control: merging the two disagreements with weight qstar
    instead of 2*qstar must fail the same comparison."""
    real = point_probability_vector

    def half_star_law(params):
        cells = [EdgeCellProbs(c.q1, c.q0, c.qstar / 2) for c in params.cells()]
        return real(SimpleNamespace(n_components=params.n_components, cells=lambda: cells))

    monkeypatch.setattr(experiment, "point_probability_vector", half_star_law)
    for params in random_points(n):
        assert worst_gap(params) > 1e-6


def str_moments_by_split(law: np.ndarray, n: int) -> tuple[float, float]:
    """E[str] and E[str^2] summed over (n11, n10, n01), weights from scipy."""
    first = second = 0.0
    for delta in range(n + 1):
        n11 = np.arange(n - delta + 1)[:, None]
        i = np.arange(delta + 1)[None, :]
        dx = (n11 + i) / n
        dy = (n11 + delta - i) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            values = 1.0 - (delta / n) / (dx * (1.0 - dy) + (1.0 - dx) * dy)
        if delta == 0:
            values[[0, n], 0] = CONVENTION_VALUE
        weights = binom.pmf(i, delta, 0.5)
        mass = law[: n - delta + 1, delta]
        first += float(mass @ (weights * values).sum(axis=1))
        second += float(mass @ (weights * values * values).sum(axis=1))
    return first, second


@st.composite
def model_params(draw):
    n = draw(st.integers(1, MAX_COMPONENTS))
    unit = st.floats(0.0, 1.0)
    p = draw(st.lists(unit, min_size=n, max_size=n))
    rho = draw(st.lists(unit, min_size=n, max_size=n))
    return ModelParams.make(p, rho)


@settings(max_examples=15, deadline=None)
@given(model_params())
def test_count_law_identities(params):
    n = params.n_components
    law = point_probability_vector(params)
    row = exact_experiment_row(params)
    e_str, e_str_sq = str_moments_by_split(law, n)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(law.sum(axis=0) @ np.arange(n + 1)) == pytest.approx(
        param_functionals(params).expected_delta, rel=1e-12, abs=1e-12
    )
    assert row.e_str == pytest.approx(e_str, abs=1e-12)
    assert row.var_str == pytest.approx(max(e_str_sq - e_str * e_str, 0.0), abs=1e-12)
    assert row.var_strbar <= row.var_str + 1e-12

