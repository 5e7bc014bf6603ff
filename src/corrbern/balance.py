"""Balancing: class-conditional averaging of statistics.

Balancing a statistic S replaces it by its mean over the disagreement
class of the observed point.  The class of a point with Delta stars has
2^Delta members, obtained by flipping each disagreeing component between
(x_i, y_i) = (1, 0) and (0, 1).  Balancing preserves the expectation of
S and never increases its variance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .model import DomainError, GraphPair
from .stats import (
    CONVENTION_VALUE,
    Tern,
    delta_stat,
    densities,
    disagreement_vector,
    alignment_strength,
    is_degenerate,
)

# 2^25 class members is about the largest brute-force average worth waiting for.
MAX_BRUTE_DELTA = 25
_LN2 = math.log(2.0)


class ClassTooLargeError(RuntimeError):
    """The disagreement class is too large to enumerate."""


@dataclass(frozen=True)
class Statistic:
    """A named, deterministic evaluator on sample points."""

    fn: Callable[[GraphPair], float]
    name: str
    balanced: bool = field(default=False)

    def __call__(self, point: GraphPair) -> float:
        return float(self.fn(point))


def iter_class(point: GraphPair):
    """Yield every member of the disagreement class containing `point`."""
    stars = [i for i, (xi, yi) in enumerate(zip(point.x, point.y)) if xi != yi]
    base_x = list(point.x)
    base_y = list(point.y)
    for assignment in itertools.product((0, 1), repeat=len(stars)):
        x = base_x[:]
        y = base_y[:]
        for pos, bit in zip(stars, assignment):
            x[pos] = bit
            y[pos] = 1 - bit
        yield GraphPair(tuple(x), tuple(y))


def balance_brute(stat: Callable[[GraphPair], float], point: GraphPair) -> float:
    """Mean of `stat` over the class of `point` by direct enumeration."""
    delta = delta_stat(point)
    if delta > MAX_BRUTE_DELTA:
        raise ClassTooLargeError(
            f"class has 2^{delta} members (guard is 2^{MAX_BRUTE_DELTA})"
        )
    total = math.fsum(stat(member) for member in iter_class(point))
    return total / (1 << delta)


def is_balanced(stat: Callable[[GraphPair], float], n: int, tol: float = 1e-12) -> bool:
    """Exhaustively check constancy of `stat` on every disagreement class."""
    if n > 8:
        raise ClassTooLargeError(f"exhaustive check limited to n <= 8, got {n}")
    seen: dict[int, float] = {}
    for bits in itertools.product((0, 1), repeat=2 * n):
        point = GraphPair(bits[:n], bits[n:])
        idx = disagreement_vector(point).lex_index()
        value = float(stat(point))
        if idx in seen:
            if abs(value - seen[idx]) > tol:
                return False
        else:
            seen[idx] = value
    return True


def balanced_dxdy(point: GraphPair) -> float:
    """Closed form of the balanced product dX*dY: dXY^2 - Delta/(4N^2)."""
    d = densities(point)
    n = point.n
    return d.d_xy * d.d_xy - delta_stat(point) / (4.0 * n * n)


def str_prime_counts(
    n: int, n11: int, delta: int, convention: float = CONVENTION_VALUE
) -> float:
    """str_prime of a count state: n11 both-one components, delta disagreements.

    (dCap - dXY^2 + Delta/(4N^2)) / (dXY(1-dXY) + Delta/(4N^2)), with the
    convention value at the two degenerate states (delta = 0, n11 in {0, N}).
    """
    if delta == 0 and n11 in (0, n):
        return convention
    c = n11 / n
    m = (2 * n11 + delta) / (2 * n)
    shift = delta / (4.0 * n * n)
    return (c - m * m + shift) / (m * (1.0 - m) + shift)


def str_class_moments(
    n: int, n11: int, delta: int, convention: float = CONVENTION_VALUE
) -> tuple[float, float]:
    """Class means of str and of str^2 over the 2^delta members of a count state.

    The member with i of its delta stars resolved as (0, 1) has
    dX = dCap + i/N and dY = dCap + (delta - i)/N, and weight
    C(delta, i)/2^delta.  The weights are carried in log space through
    the ratio (delta - i)/(i + 1), starting at -delta*ln 2, so they stay
    finite for any delta, and the sums are divided by the sum of the
    weights, which cancels the rounding carried in from the tails.
    """
    if delta == 0 and n11 in (0, n):
        return convention, convention * convention
    c = n11 / n
    m = (2 * n11 + delta) / (2 * n)
    log_w = -delta * _LN2
    total = mean = mean_sq = 0.0
    for i in range(delta + 1):
        w = math.exp(log_w)
        prod = (c + i / n) * (c + (delta - i) / n)
        s = (c - prod) / (m - prod)
        total += w
        mean += w * s
        mean_sq += w * s * s
        if i < delta:
            log_w += math.log((delta - i) / (i + 1))
    return mean / total, mean_sq / total


def _counts(point: GraphPair) -> tuple[int, int, int]:
    """(N, n11, Delta) of a sample point."""
    n11 = sum(xi & yi for xi, yi in zip(point.x, point.y))
    return point.n, n11, delta_stat(point)


def modified_alignment_strength(
    point: GraphPair, convention: float = CONVENTION_VALUE
) -> float:
    """Quotient of the separately balanced numerator and denominator of str.

    Evaluated on the point's count state by `str_prime_counts`.
    """
    return str_prime_counts(*_counts(point), convention)


def balanced_alignment_strength(
    point: GraphPair, convention: float = CONVENTION_VALUE
) -> float:
    """Balanced alignment strength: the class mean of str, in O(Delta) arithmetic.

    Evaluated on the point's count state by `str_class_moments`.
    """
    return str_class_moments(*_counts(point), convention)[0]


def sigma2_umvue(point: GraphPair) -> float:
    """dXY(1-dXY) - (1/(2N))(1 - 1/(2N)) Delta.

    Unbiased for sigma^2 of the p vector when all correlations are zero.
    """
    d = densities(point)
    n = point.n
    half = 1.0 / (2.0 * n)
    return d.d_xy * (1.0 - d.d_xy) - half * (1.0 - half) * delta_stat(point)


def combine_linear(stat_a: Statistic, stat_b: Statistic, a: float, b: float) -> Statistic:
    """a*A + b*B; balanced whenever both inputs are balanced."""
    return Statistic(
        fn=lambda pt: a * stat_a(pt) + b * stat_b(pt),
        name=f"{a}*{stat_a.name} + {b}*{stat_b.name}",
        balanced=stat_a.balanced and stat_b.balanced,
    )


def combine_product(stat_a: Statistic, stat_b: Statistic) -> Statistic:
    """A*B; balanced whenever both inputs are balanced."""
    return Statistic(
        fn=lambda pt: stat_a(pt) * stat_b(pt),
        name=f"({stat_a.name}) * ({stat_b.name})",
        balanced=stat_a.balanced and stat_b.balanced,
    )


def combine_quotient(stat_a: Statistic, stat_b: Statistic, n: int) -> Statistic:
    """A/B; requires the denominator to be nonzero on every class.

    The zero check is exhaustive over the 4^n sample points, so it is
    only available at desk scale.
    """
    for bits in itertools.product((0, 1), repeat=2 * n):
        point = GraphPair(bits[:n], bits[n:])
        if stat_b(point) == 0.0:
            h = disagreement_vector(point)
            raise DomainError(
                f"denominator {stat_b.name!r} vanishes on class index "
                f"{h.lex_index()} (h={tuple(int(t) for t in h.h)})"
            )
    return Statistic(
        fn=lambda pt: stat_a(pt) / stat_b(pt),
        name=f"({stat_a.name}) / ({stat_b.name})",
        balanced=stat_a.balanced and stat_b.balanced,
    )


# Ready-made statistics used throughout the experiments and tests.
STAT_DELTA = Statistic(fn=delta_stat, name="delta", balanced=True)
STAT_STR = Statistic(fn=alignment_strength, name="str")
STAT_STR_BAR = Statistic(
    fn=balanced_alignment_strength, name="str_bar", balanced=True
)
STAT_STR_PRIME = Statistic(
    fn=modified_alignment_strength, name="str_prime", balanced=True
)
STAT_SIGMA2_UMVUE = Statistic(fn=sigma2_umvue, name="sigma2_umvue", balanced=True)
STAT_DX = Statistic(fn=lambda pt: densities(pt).d_x, name="d_x")
STAT_DY = Statistic(fn=lambda pt: densities(pt).d_y, name="d_y")
STAT_DXY = Statistic(fn=lambda pt: densities(pt).d_xy, name="d_xy", balanced=True)
STAT_DCAP = Statistic(fn=lambda pt: densities(pt).d_cap, name="d_cap", balanced=True)
STAT_DXDY = Statistic(fn=lambda pt: densities(pt).d_x * densities(pt).d_y, name="dx*dy")
STAT_BALANCED_DXDY = Statistic(fn=balanced_dxdy, name="balanced dx*dy", balanced=True)
STAT_STR_DENOM = Statistic(
    fn=lambda pt: (
        densities(pt).d_x * (1.0 - densities(pt).d_y)
        + (1.0 - densities(pt).d_x) * densities(pt).d_y
    ),
    name="dX(1-dY)+(1-dX)dY",
)
