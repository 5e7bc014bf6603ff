"""Exact enumeration of moments over the 4^N sample space.

These routines are the ground truth the rest of the package is checked
against: expectations, variances and MSEs computed by visiting every
sample point (or every disagreement class, when the statistic is known
to be class-constant).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CapacityError, GraphPair, ModelParams
from .stats import Tern, disagreement_vector

MAX_EXACT_N = 10  # 4^10 ~ 1e6 sample points


@dataclass(frozen=True)
class ExactMoments:
    mean: float
    variance: float
    second_moment: float


def iter_points(n: int):
    """All 4^n sample points, x-bits then y-bits, lexicographic."""
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield GraphPair(bits[:n], bits[n:])


def class_representative(h: tuple[int, ...]) -> GraphPair:
    """One member of the class with ternary label h (stars become (1, 0))."""
    x = tuple(1 if t in (Tern.ONE, Tern.STAR) else 0 for t in h)
    y = tuple(1 if t == Tern.ONE else 0 for t in h)
    return GraphPair(x, y)


def kron_vectors(factors) -> np.ndarray:
    """Kronecker product of 1-D vectors, leftmost factor most significant.

    Each step is np.multiply.outer(...).ravel(), which forms the same
    products as np.kron in the same order, bit for bit, at a fraction of
    its call overhead.
    """
    out = np.ones(1)
    for factor in factors:
        out = np.multiply.outer(out, factor).ravel()
    return out


def class_probabilities(params: ModelParams) -> np.ndarray:
    """P(H = h) for all 3^N classes, lexicographic in h.

    Entry for class h is 2^Delta(h) times the common point probability;
    built as an N-fold Kronecker product of per-component triples
    (q0, 2*qstar, q1), leftmost component most significant.
    """
    n = params.n_components
    if n > 16:
        raise CapacityError(f"3^{n} classes exceed the supported size (n <= 16)")
    return kron_vectors(
        np.array([cell.q0, 2.0 * cell.qstar, cell.q1]) for cell in params.cells()
    )


def point_probabilities(params: ModelParams) -> np.ndarray:
    """P(point) for all 4^N sample points, in `iter_points` order.

    The Kronecker product of the per-component tables
    [[q0, qstar], [qstar, q1]] (indexed by (x_i, y_i)) has its axes in
    (x_1, y_1, ..., x_N, y_N) order; they are moved to x-bits-then-y-bits
    order.  Every entry is the product q(x_1, y_1) * ... * q(x_N, y_N)
    taken left to right, the same factors in the same order as
    `model.point_probability`, so the two agree bit for bit.
    """
    n = params.n_components
    if n > MAX_EXACT_N:
        raise CapacityError(
            f"4^{n} points exceed the supported size (n <= {MAX_EXACT_N})"
        )
    law = kron_vectors(
        np.array([cell.q0, cell.qstar, cell.qstar, cell.q1]) for cell in params.cells()
    )
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return law.reshape((2,) * (2 * n)).transpose(order).ravel()


def class_sum_vector(stat: Callable[[GraphPair], float], n: int) -> np.ndarray:
    """Per-class sums of `stat`, length 3^n, lexicographic in h."""
    if n > 8:
        raise CapacityError(f"4^{n} points exceed the supported size (n <= 8)")
    sums = np.zeros(3**n)
    for point in iter_points(n):
        sums[disagreement_vector(point).lex_index()] += stat(point)
    return sums


def exact_moments(
    stat: Callable[[GraphPair], float],
    params: ModelParams,
    balanced: bool = False,
) -> ExactMoments:
    """Mean/variance/second moment of `stat` by exact enumeration.

    With balanced=True the statistic is evaluated once per disagreement
    class (it must be class-constant); otherwise every sample point is
    visited.  Accumulation uses exactly rounded summation (math.fsum).
    """
    n = params.n_components
    if n > MAX_EXACT_N:
        raise CapacityError(
            f"4^{n} sample points exceed the exact-enumeration bound "
            f"(n <= {MAX_EXACT_N}); use Monte Carlo instead"
        )
    if getattr(stat, "balanced", False) or balanced:
        probs = class_probabilities(params)
        values = np.array(
            [
                stat(class_representative(h))
                for h in itertools.product(
                    (Tern.ZERO, Tern.STAR, Tern.ONE), repeat=n
                )
            ]
        )
        terms_m = probs * values
        terms_s = terms_m * values
    else:
        values = np.fromiter(map(stat, iter_points(n)), dtype=float, count=4**n)
        terms_m = point_probabilities(params) * values
        terms_s = terms_m * values
    mean = math.fsum(terms_m)
    second = math.fsum(terms_s)
    variance = max(second - mean * mean, 0.0)
    return ExactMoments(mean=mean, variance=variance, second_moment=second)


def mse_against(
    stat: Callable[[GraphPair], float],
    target: float,
    params: ModelParams,
    balanced: bool = False,
) -> float:
    """E[(stat - target)^2] = variance + (mean - target)^2."""
    m = exact_moments(stat, params, balanced=balanced)
    return m.variance + (m.mean - target) ** 2
