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
from .oracle import iter_points
from .stats import (
    CONVENTION_VALUE,
    count_densities,
    counts,
    delta_stat,
    densities,
    disagreement_vector,
    alignment_strength,
)

# 2^25 class members is about the largest brute-force average worth waiting for.
MAX_BRUTE_DELTA = 25
# str_class_moments sums |i - delta/2| <= _WINDOW_SDS*sqrt(delta) + _WINDOW_PAD.
_WINDOW_SDS = 5.0
_WINDOW_PAD = 10.0


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
    for point in iter_points(n):
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
    c = counts(point)
    d = count_densities(c)
    return d.d_xy * d.d_xy - c.delta / (4.0 * c.n * c.n)


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
    C(delta, i)/2^delta.  Only the window |i - delta/2| <= t with
    t = 5*sqrt(delta) + 10, clipped to [0, delta], is summed, so a call
    costs O(sqrt(delta)); for delta <= 137 the window is the whole class.

    Members i and delta - i have the same product dX*dY, so the same str,
    and the same weight, and the window [lo, delta - lo] is symmetric:
    only i < delta/2 is visited, each term counted twice, and the middle
    term i = delta/2 of an even delta once.  The weights are carried by
    the linear recurrence w(i + 1) = w(i) * (delta - i)/(i + 1) from
    w(lo) = 1, and the sums are divided by the sum of the weights, so the
    start cancels.  They cannot overflow: when lo = 0 (delta <= 137) they
    peak at C(delta, delta/2) <= C(137, 68) < 2^137, and otherwise at
    C(delta, delta/2)/C(delta, lo) < e^90 (largest near delta = 140,
    falling towards e^50 as delta grows).  Starting at 2^-delta instead
    would underflow to 0 past delta = 1074.

    Error bound: by Hoeffding, the weight outside the window is below
    2*exp(-2*t^2/delta) <= 2*exp(-50) < 4e-22.  Every member has
    1 - 2N/delta <= str <= 1, because str's denominator
    dX(1-dY) + (1-dX)dY is at least (n10^2 + n01^2)/N^2 >= delta^2/(2N^2);
    so the dropped members move the mean of str by less than
    4e-22 * 2N/delta, and that of str^2 by less than 4e-22 * (2N/delta)^2.
    """
    if delta == 0 and n11 in (0, n):
        return convention, convention * convention
    c = n11 / n
    m = (2 * n11 + delta) / (2 * n)
    half = _WINDOW_SDS * math.sqrt(delta) + _WINDOW_PAD
    lo = max(0, math.ceil(delta / 2 - half))
    w = 1.0
    total = mean = mean_sq = 0.0
    for i in range(lo, (delta + 1) // 2):
        prod = (c + i / n) * (c + (delta - i) / n)
        s = (c - prod) / (m - prod)
        ws = w * s
        total += w
        mean += ws
        mean_sq += ws * s
        w *= (delta - i) / (i + 1)
    total += total
    mean += mean
    mean_sq += mean_sq
    if delta % 2 == 0:  # the middle member, its own mirror image
        i = delta // 2
        prod = (c + i / n) * (c + i / n)
        s = (c - prod) / (m - prod)
        ws = w * s
        total += w
        mean += ws
        mean_sq += ws * s
    return mean / total, mean_sq / total


def modified_alignment_strength(
    point: GraphPair, convention: float = CONVENTION_VALUE
) -> float:
    """Quotient of the separately balanced numerator and denominator of str.

    Evaluated on the point's count state by `str_prime_counts`.
    """
    c = counts(point)
    return str_prime_counts(c.n, c.n11, c.delta, convention)


def balanced_alignment_strength(
    point: GraphPair, convention: float = CONVENTION_VALUE
) -> float:
    """Balanced alignment strength: the class mean of str, in O(sqrt(Delta)) arithmetic.

    Evaluated on the point's count state by `str_class_moments`.
    """
    c = counts(point)
    return str_class_moments(c.n, c.n11, c.delta, convention)[0]


def sigma2_umvue(point: GraphPair) -> float:
    """dXY(1-dXY) - (1/(2N))(1 - 1/(2N)) Delta.

    Unbiased for sigma^2 of the p vector when all correlations are zero.
    """
    c = counts(point)
    d = count_densities(c)
    half = 1.0 / (2.0 * c.n)
    return d.d_xy * (1.0 - d.d_xy) - half * (1.0 - half) * c.delta


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
    for point in iter_points(n):
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


def _dxdy(point: GraphPair) -> float:
    d = densities(point)
    return d.d_x * d.d_y


def _str_denom(point: GraphPair) -> float:
    d = densities(point)
    return d.d_x * (1.0 - d.d_y) + (1.0 - d.d_x) * d.d_y


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
STAT_DXDY = Statistic(fn=_dxdy, name="dx*dy")
STAT_BALANCED_DXDY = Statistic(fn=balanced_dxdy, name="balanced dx*dy", balanced=True)
STAT_STR_DENOM = Statistic(fn=_str_denom, name="dX(1-dY)+(1-dX)dY")
