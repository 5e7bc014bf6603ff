"""Sample-point statistics and parameter functionals.

Statistics are plain functions GraphPair -> float of the point's count
state (`counts`).  The alignment strength family adopts the convention
value CONVENTION_VALUE at the two degenerate points (both vectors all
zeros, or both all ones), where its denominator vanishes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .model import GraphPair, ModelParams

# Value assigned to str-family statistics at the two degenerate points.
# Any value in [0, 1] is admissible; 0 is fixed here and exposed so
# sensitivity tests can evaluate other choices.
CONVENTION_VALUE = 0.0


class Tern(IntEnum):
    """Ternary component labels, in lexicographic order (STAR sorts as 1/2)."""

    ZERO = 0
    STAR = 1
    ONE = 2


@dataclass(frozen=True)
class DisagreementVector:
    """Per-component ternary summary of a sample point."""

    h: tuple[Tern, ...]

    @property
    def delta(self) -> int:
        return self.h.count(Tern.STAR)

    @property
    def n(self) -> int:
        return len(self.h)

    def lex_index(self) -> int:
        """Base-3 index, leftmost component most significant."""
        idx = 0
        for t in self.h:
            idx = 3 * idx + int(t)
        return idx

    def class_size(self) -> int:
        return 1 << self.delta


class Counts(NamedTuple):
    """n components: n11 with both bits one, n10 with only x, n01 with only y."""

    n: int
    n11: int
    n10: int
    n01: int

    @property
    def delta(self) -> int:
        return self.n10 + self.n01

    @property
    def degenerate(self) -> bool:
        """True at the two all-equal points where the str family needs a convention."""
        return self.delta == 0 and self.n11 in (0, self.n)


class Densities(NamedTuple):
    d_x: float
    d_y: float
    d_xy: float
    d_cap: float
    d_cup: float


@dataclass(frozen=True)
class ParamFunctionals:
    mu: float
    sigma2: float
    rho_h: float
    rho_t: float
    expected_delta: float


def disagreement_vector(point: GraphPair) -> DisagreementVector:
    h = []
    for xi, yi in zip(point.x, point.y):
        if xi != yi:
            h.append(Tern.STAR)
        else:
            h.append(Tern.ONE if xi == 1 else Tern.ZERO)
    return DisagreementVector(tuple(h))


def counts(point: GraphPair) -> Counts:
    """The count state of `point`: the one place its bits are reduced."""
    x, y = point.x, point.y
    n11 = sum(map(operator.and_, x, y))
    return Counts(len(x), n11, sum(x) - n11, sum(y) - n11)


def counts_of_bits(x: str, y: str) -> Counts:
    """The count state of a pair written as two equal-length strings of '0'/'1'.

    The same reduction as `counts`, done by C-level string and integer
    operations.  The caller checks the strings first: `int(s, 2)` also
    accepts '0b1', '1_0', ' 1', '+1' and non-ASCII digits.
    """
    n11 = (int(x, 2) & int(y, 2)).bit_count()
    return Counts(len(x), n11, x.count("1") - n11, y.count("1") - n11)


def count_densities(c: Counts) -> Densities:
    d_x = (c.n11 + c.n10) / c.n
    d_y = (c.n11 + c.n01) / c.n
    d_cap = c.n11 / c.n
    return Densities(d_x, d_y, 0.5 * (d_x + d_y), d_cap, d_x + d_y - d_cap)


def densities(point: GraphPair) -> Densities:
    return count_densities(counts(point))


def delta_stat(point: GraphPair) -> int:
    """Number of components where x and y disagree."""
    return counts(point).delta


def is_degenerate(point: GraphPair) -> bool:
    """True at the two all-equal points where the str family needs a convention."""
    return counts(point).degenerate


def str_counts(c: Counts, convention: float = CONVENTION_VALUE) -> float:
    """Alignment strength of a count state; see `alignment_strength`."""
    if c.degenerate:
        return convention
    d = count_densities(c)
    denom = d.d_x * (1.0 - d.d_y) + (1.0 - d.d_x) * d.d_y
    return 1.0 - (c.delta / c.n) / denom


def alignment_strength(point: GraphPair, convention: float = CONVENTION_VALUE) -> float:
    """1 - (Delta/N) / (dX(1-dY) + (1-dX)dY), convention at degenerate points.

    Equivalently (dCap - dX*dY) / (dXY - dX*dY); both denominators vanish
    exactly at the two degenerate points.
    """
    return str_counts(counts(point), convention)


def alignment_strength_ratio_form(
    point: GraphPair, convention: float = CONVENTION_VALUE
) -> float:
    """The covariance-ratio form of alignment strength (same function)."""
    c = counts(point)
    if c.degenerate:
        return convention
    d = count_densities(c)
    dxdy = d.d_x * d.d_y
    return (d.d_cap - dxdy) / (d.d_xy - dxdy)


def param_functionals(params: ModelParams) -> ParamFunctionals:
    """mu, sigma^2 (population), rho_H, rho_T, and E(Delta).

    rho_H and rho_T take the convention value 0 when mu is 0 or 1.
    """
    n = params.n_components
    mu = sum(params.p) / n
    sigma2 = sum((pi - mu) ** 2 for pi in params.p) / n
    s = sum((1.0 - ri) * pi * (1.0 - pi) for pi, ri in zip(params.p, params.rho))
    if mu in (0.0, 1.0):
        rho_h = 0.0
        rho_t = 0.0
    else:
        denom = mu * (1.0 - mu)
        rho_h = sigma2 / denom
        rho_t = 1.0 - s / (n * denom)
    return ParamFunctionals(
        mu=mu,
        sigma2=sigma2,
        rho_h=rho_h,
        rho_t=rho_t,
        expected_delta=2.0 * s,
    )
