import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrbern import balance
from corrbern.balance import (
    STAT_BALANCED_DXDY,
    STAT_DELTA,
    STAT_DXDY,
    STAT_STR,
    STAT_STR_BAR,
    STAT_STR_DENOM,
    STAT_STR_PRIME,
    ClassTooLargeError,
    Statistic,
    balance_brute,
    balanced_alignment_strength,
    balanced_dxdy,
    combine_linear,
    combine_product,
    combine_quotient,
    is_balanced,
    iter_class,
    modified_alignment_strength,
    sigma2_umvue,
)
from corrbern.model import DomainError, GraphPair, ModelParams
from corrbern.oracle import class_sum_vector, exact_moments
from corrbern.stats import (
    densities,
    disagreement_vector,
    is_degenerate,
    param_functionals,
)


def all_points(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield GraphPair(bits[:n], bits[n:])


class TestBalanceBrute:
    def test_delta_is_fixed_point(self):
        for pt in all_points(3):
            assert balance_brute(STAT_DELTA, pt) == pytest.approx(
                STAT_DELTA(pt), abs=1e-12
            )

    def test_dxdy_two_point_class(self):
        assert balance_brute(STAT_DXDY, GraphPair((1, 0), (1, 1))) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_str_denominator_not_balanced(self):
        # Same all-star class, raw values 1 vs 0.5, identical balanced value.
        n = 4
        x1 = (0,) * n
        y1 = (1,) * n
        x2 = (0, 0, 1, 1)
        y2 = (1, 1, 0, 0)
        assert STAT_STR_DENOM(GraphPair(x1, y1)) == pytest.approx(1.0)
        assert STAT_STR_DENOM(GraphPair(x2, y2)) == pytest.approx(0.5)
        assert balance_brute(STAT_STR_DENOM, GraphPair(x1, y1)) == pytest.approx(
            balance_brute(STAT_STR_DENOM, GraphPair(x2, y2)), abs=1e-12
        )

    def test_class_size_guard(self):
        n = 30
        pt = GraphPair((0,) * n, (1,) * n)
        with pytest.raises(ClassTooLargeError):
            balance_brute(STAT_DELTA, pt)

    def test_idempotent(self):
        bar = Statistic(
            fn=lambda pt: balance_brute(STAT_STR, pt), name="brute str_bar"
        )
        for pt in all_points(3):
            assert balance_brute(bar, pt) == pytest.approx(bar(pt), abs=1e-12)

    def test_iter_class_size(self):
        pt = GraphPair((1, 0, 0), (0, 0, 1))
        members = list(iter_class(pt))
        assert len(members) == 4
        assert len(set(members)) == 4


def class_means(stat, n):
    """Brute class mean of `stat` at each of the 4^n points, from the class sums."""
    sums = class_sum_vector(stat, n)
    return [
        sums[h.lex_index()] / h.class_size()
        for h in map(disagreement_vector, all_points(n))
    ]


class TestBruteClassMeans:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "stat", [STAT_STR, STAT_DXDY, STAT_STR_DENOM], ids=lambda s: s.name
    )
    def test_balance_brute_equals_class_sum_mean(self, n, stat):
        got = [balance_brute(stat, pt) for pt in all_points(n)]
        np.testing.assert_allclose(got, class_means(stat, n), rtol=1e-13, atol=1e-14)


class TestIsBalanced:
    def test_delta_balanced(self):
        assert is_balanced(STAT_DELTA, 3)

    def test_str_not_balanced(self):
        assert not is_balanced(STAT_STR, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_str_prime_balanced(self, n):
        assert is_balanced(STAT_STR_PRIME, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_str_bar_balanced(self, n):
        assert is_balanced(STAT_STR_BAR, n)

    def test_str_denominator_not_balanced(self):
        assert not is_balanced(STAT_STR_DENOM, 3)


class TestClosedForms:
    def test_balanced_dxdy_hand_value(self):
        assert balanced_dxdy(GraphPair((1, 0), (1, 1))) == pytest.approx(
            9 / 16 - 1 / 16, abs=1e-15
        )

    def test_balanced_dxdy_no_disagreement(self):
        pt = GraphPair((1, 0, 1), (1, 0, 1))
        assert balanced_dxdy(pt) == pytest.approx(densities(pt).d_x ** 2, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_balanced_dxdy_matches_brute(self, n):
        for pt in all_points(n):
            assert balanced_dxdy(pt) == pytest.approx(
                balance_brute(STAT_DXDY, pt), abs=1e-12
            )

    def test_str_prime_hand_values(self):
        assert modified_alignment_strength(GraphPair((1, 0), (1, 1))) == pytest.approx(
            0.0, abs=1e-15
        )
        assert modified_alignment_strength(GraphPair((1, 0), (1, 0))) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_str_prime_matches_brute_quotient(self, n):
        num = Statistic(
            fn=lambda pt: densities(pt).d_cap
            - densities(pt).d_x * densities(pt).d_y,
            name="num",
        )
        den = Statistic(
            fn=lambda pt: densities(pt).d_xy
            - densities(pt).d_x * densities(pt).d_y,
            name="den",
        )
        # The brute class means of num and den, read from the class sums.
        for pt, num_mean, den_mean in zip(
            all_points(n), class_means(num, n), class_means(den, n)
        ):
            if is_degenerate(pt):
                continue
            expected = num_mean / den_mean
            assert modified_alignment_strength(pt) == pytest.approx(
                expected, abs=1e-12
            )

    def test_str_prime_alternative_form(self):
        # The (dX - dY)^2 form of the same statistic.
        for pt in all_points(4):
            if is_degenerate(pt):
                continue
            d = densities(pt)
            n = pt.n
            corr = 0.25 * (
                balance.delta_stat(pt) / n**2 - (d.d_x - d.d_y) ** 2
            )
            dxdy = d.d_x * d.d_y
            alt = (d.d_cap - dxdy + corr) / (d.d_xy - dxdy + corr)
            assert modified_alignment_strength(pt) == pytest.approx(alt, abs=1e-12)


class TestBalancedAlignmentStrength:
    def test_hand_values(self):
        assert balanced_alignment_strength(GraphPair((1, 0), (1, 1))) == pytest.approx(
            0.0, abs=1e-15
        )
        assert balanced_alignment_strength(GraphPair((1, 0), (1, 0))) == pytest.approx(
            1.0, abs=1e-15
        )
        assert balanced_alignment_strength(GraphPair((0, 0), (0, 0))) == 0.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute(self, n):
        # The brute class mean of str, read from the class sums (see
        # TestBruteClassMeans for balance_brute itself).
        got = [balanced_alignment_strength(pt) for pt in all_points(n)]
        want = class_means(STAT_STR, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n11,delta", [(500, 1100), (400, 2200)])
    def test_large_delta_matches_exact_average(self, n11, delta):
        # 2^-delta underflows to 0.0 past delta = 1074; the class average
        # must not.
        n = 3000
        ones = delta // 3
        x = (1,) * n11 + (1,) * ones + (0,) * (delta - ones) + (0,) * (n - n11 - delta)
        y = (1,) * n11 + (0,) * ones + (1,) * (delta - ones) + (0,) * (n - n11 - delta)
        exact = Fraction(0)
        for i in range(delta + 1):
            dx = Fraction(n11 + i, n)
            dy = Fraction(n11 + delta - i, n)
            value = 1 - Fraction(delta, n) / (dx * (1 - dy) + (1 - dx) * dy)
            exact += math.comb(delta, i) * value
        exact /= 2**delta
        assert balanced_alignment_strength(GraphPair(x, y)) == pytest.approx(
            float(exact), rel=1e-12
        )


def exact_class_moments(n, n11, delta):
    """Class means of str and str^2 in integer arithmetic, to 2^-90 relative.

    The member with i stars resolved as (1, 0) has str = 1 - delta*N/D_i,
    where D_i = N^2 * (dX(1-dY) + (1-dX)dY) is an integer.  C(delta, i)*2^128
    is carried exactly by the ratio (delta - i)/(i + 1), each quotient by D_i
    is floored once, and the two sums are rounded to float once, as Fractions.
    """
    t1 = t2 = 0
    comb = 1 << 128
    for i in range(delta + 1):
        sx, sy = n11 + i, n11 + delta - i
        d_i = sx * (n - sy) + (n - sx) * sy
        t1 += comb // d_i
        t2 += comb // (d_i * d_i)
        comb = comb * (delta - i) // (i + 1)
    k = delta * n
    s1 = Fraction(t1, 1 << (delta + 128))
    s2 = Fraction(t2, 1 << (delta + 128))
    return float(1 - k * s1), float(1 - 2 * k * s1 + k * k * s2)


@st.composite
def count_states(draw):
    n = draw(st.integers(1, 5000))
    delta = draw(st.integers(0, n))
    n11 = draw(st.integers(0, n - delta))
    return n, n11, delta


class TestStrBarWindow:
    """str_class_moments sums only |i - delta/2| <= 5*sqrt(delta) + 10."""

    @settings(max_examples=15, deadline=None)
    @given(count_states())
    @example((4950, 300, 2000))
    @example((5000, 0, 5000))
    @example((200, 0, 137))  # the last delta whose window is the whole class
    @example((200, 0, 138))  # the first whose window drops i = 0 and i = delta
    @example((10, 2, 5))  # odd delta: no middle member
    @example((10, 2, 6))  # even delta: the middle member counted once
    def test_matches_exact_class_average(self, state):
        n, n11, delta = state
        assume(delta > 0 or 0 < n11 < n)  # degenerate states take the convention
        mean, mean_sq = balance.str_class_moments(n, n11, delta)
        want_mean, want_sq = exact_class_moments(n, n11, delta)
        # Rounding is absolute, a few ulps of the class range 2N/delta of
        # str, so near a zero of the mean the relative test gets that floor.
        span = 2 * n / delta if delta else 1.0
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-14 * span)
        assert mean_sq == pytest.approx(want_sq, rel=1e-12, abs=1e-14 * span**2)

    def test_million_disagreements_stay_finite(self):
        # N = Delta = 10^6: the weights, relative to the window's first
        # member, neither overflow nor underflow.
        n = delta = 10**6
        mean, mean_sq = balance.str_class_moments(n, 0, delta)
        assert math.isfinite(mean) and math.isfinite(mean_sq)
        assert 1 - 2 * n / delta <= mean <= 1
        assert mean * mean <= mean_sq

    def test_narrow_window_is_caught(self, monkeypatch):
        # Half-width 2*sqrt(delta) drops a weight of about 2*exp(-8).
        want = exact_class_moments(4950, 300, 2000)[0]
        monkeypatch.setattr(balance, "_WINDOW_SDS", 2.0)
        monkeypatch.setattr(balance, "_WINDOW_PAD", 0.0)
        got = balance.str_class_moments(4950, 300, 2000)[0]
        assert abs(got - want) / abs(want) > 1e-10


class TestCombinators:
    def test_identity_combination(self):
        combo = combine_linear(STAT_DELTA, STAT_BALANCED_DXDY, 1.0, 0.0)
        for pt in all_points(3):
            assert combo(pt) == STAT_DELTA(pt)

    def test_sum_closure(self):
        combo = combine_linear(STAT_DELTA, STAT_BALANCED_DXDY, 1.0, 1.0)
        assert combo.balanced
        for n in range(2, 6):
            assert is_balanced(combo, n)

    def test_product_closure(self):
        combo = combine_product(STAT_STR_PRIME, STAT_BALANCED_DXDY)
        assert combo.balanced
        for n in range(2, 6):
            assert is_balanced(combo, n)

    def test_quotient_zero_denominator_rejected(self):
        zero_somewhere = Statistic(fn=lambda pt: float(STAT_DELTA(pt)), name="delta")
        with pytest.raises(DomainError, match="class"):
            combine_quotient(STAT_BALANCED_DXDY, zero_somewhere, n=2)

    def test_quotient_ok(self):
        one = Statistic(fn=lambda pt: 1.0 + STAT_DELTA(pt), name="1+delta", balanced=True)
        combo = combine_quotient(STAT_DELTA, one, n=3)
        assert is_balanced(combo, 3)


class TestSigma2Umvue:
    def test_no_disagreement(self):
        pt = GraphPair((1, 1, 0, 0), (1, 1, 0, 0))
        d = densities(pt)
        assert sigma2_umvue(pt) == pytest.approx(d.d_x * (1 - d.d_x), abs=1e-15)

    def test_hand_value(self):
        assert sigma2_umvue(GraphPair((1, 0), (0, 1))) == pytest.approx(
            -0.125, abs=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unbiased_for_sigma2(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            params = ModelParams.make(rng.uniform(0.05, 0.95, n), [0.0] * n)
            moments = exact_moments(balance.STAT_SIGMA2_UMVUE, params)
            assert moments.mean == pytest.approx(
                param_functionals(params).sigma2, abs=1e-12
            )
