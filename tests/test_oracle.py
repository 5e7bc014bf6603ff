import itertools
import math

import numpy as np
import pytest

from corrbern.balance import (
    STAT_DELTA,
    STAT_DXDY,
    STAT_STR,
    STAT_STR_BAR,
    STAT_STR_DENOM,
    STAT_STR_PRIME,
    Statistic,
    balance_brute,
)
from corrbern.linsys import monomial_vector
from corrbern.model import CapacityError, GraphPair, ModelParams, point_probability
from corrbern.oracle import (
    class_probabilities,
    class_representative,
    class_sum_vector,
    exact_moments,
    iter_points,
    mse_against,
    point_probabilities,
)
from corrbern.stats import Tern, disagreement_vector, param_functionals


class TestExactMoments:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_delta_mean_formula(self, n):
        rng = np.random.default_rng(n)
        p = rng.random(n)
        rho = rng.random(n)
        params = ModelParams.make(p, rho)
        m = exact_moments(STAT_DELTA, params)
        assert m.mean == pytest.approx(
            2 * float(((1 - rho) * p * (1 - p)).sum()), abs=1e-12
        )

    def test_constant_statistic(self):
        params = ModelParams.make([0.3, 0.7], [0.2, 0.9])
        const = Statistic(fn=lambda pt: 2.5, name="const", balanced=True)
        m = exact_moments(const, params)
        assert m.mean == pytest.approx(2.5, abs=1e-15)
        assert m.variance == pytest.approx(0.0, abs=1e-15)

    def test_reference_row_str(self):
        params = ModelParams.make(
            [0.6892, 0.7224, 0.4795, 0.8985, 0.4022, 0.7043],
            [0.8429, 0.9852, 0.8006, 0.3118, 0.5768, 0.5751],
        )
        m = exact_moments(STAT_STR, params)
        assert m.mean == pytest.approx(0.6851, abs=5e-5)
        assert m.variance == pytest.approx(0.1219, abs=5e-5)

    def test_balanced_path_matches_point_path(self):
        params = ModelParams.make([0.3, 0.8, 0.55], [0.1, 0.0, 0.7])
        slow = exact_moments(
            Statistic(fn=STAT_STR_BAR.fn, name="str_bar pointwise"), params
        )
        fast = exact_moments(STAT_STR_BAR, params)
        assert fast.mean == pytest.approx(slow.mean, abs=1e-12)
        assert fast.variance == pytest.approx(slow.variance, abs=1e-12)

    def test_capacity_guard(self):
        params = ModelParams.make([0.5] * 11, [0.0] * 11)
        with pytest.raises(CapacityError, match="Monte Carlo"):
            exact_moments(STAT_STR, params)


class TestClassProbabilities:
    def test_single_component(self):
        table = class_probabilities(ModelParams.make([0.5], [0.0]))
        assert table == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_full_correlation_kills_star_classes(self):
        table = class_probabilities(ModelParams.make([0.4, 0.6], [1.0, 1.0]))
        for h in itertools.product((Tern.ZERO, Tern.STAR, Tern.ONE), repeat=2):
            idx = 3 * int(h[0]) + int(h[1])
            if Tern.STAR in h:
                assert table[idx] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_point_sums(self, n):
        rng = np.random.default_rng(100 + n)
        params = ModelParams.make(rng.random(n), rng.random(n))
        sums = np.zeros(3**n)
        for pt in iter_points(n):
            sums[disagreement_vector(pt).lex_index()] += point_probability(
                params, pt
            )
        assert class_probabilities(params) == pytest.approx(sums, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(9)
        params = ModelParams.make(rng.random(8), rng.random(8))
        assert math.fsum(class_probabilities(params)) == pytest.approx(
            1.0, abs=1e-10
        )


def edge_params(n, seed):
    """Random interior parameters with p in {0, 1} and rho = 1 mixed in."""
    rng = np.random.default_rng(seed)
    p = rng.random(n)
    rho = rng.random(n)
    p[::3] = 0.0
    p[1::3] = 1.0
    rho[::2] = 1.0
    return ModelParams.make(p, rho)


class TestPointProbabilities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("edge", [False, True], ids=["interior", "edge"])
    def test_equals_point_products(self, n, edge):
        if edge:
            params = edge_params(n, 300 + n)
        else:
            params = ModelParams.make(*np.random.default_rng(300 + n).random((2, n)))
        want = np.array([point_probability(params, pt) for pt in iter_points(n)])
        assert np.array_equal(point_probabilities(params), want)

    @pytest.mark.parametrize("n", [2, 4])
    def test_swapped_law_misses(self, n):
        # q0 and q1 swap when p becomes 1 - p; the comparison must see it.
        rng = np.random.default_rng(400 + n)
        p, rho = rng.uniform(0.1, 0.9, n), rng.random(n)
        want = np.array(
            [point_probability(ModelParams.make(p, rho), pt) for pt in iter_points(n)]
        )
        swapped = point_probabilities(ModelParams.make(1.0 - p, rho))
        assert not np.allclose(swapped, want)

    def test_interleaved_axes_miss(self):
        # The Kronecker chain before its axes move is in (x1, y1, x2, y2) order.
        params = ModelParams.make([0.2, 0.7], [0.3, 0.1])
        want = np.array([point_probability(params, pt) for pt in iter_points(2)])
        interleaved = kron_chain(
            [[c.q0, c.qstar, c.qstar, c.q1] for c in params.cells()]
        )
        assert np.allclose(np.sort(interleaved), np.sort(want))
        assert not np.allclose(interleaved, want)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            point_probabilities(ModelParams.make([0.5] * 11, [0.0] * 11))


def kron_chain(factors):
    """The Kronecker product of 1-D factors by a plain np.kron chain."""
    out = np.ones(1)
    for factor in factors:
        out = np.kron(out, np.asarray(factor, dtype=float))
    return out


class TestKronVectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_class_probabilities_equal_kron_chain(self, n):
        rng = np.random.default_rng(500 + n)
        params = ModelParams.make(rng.random(n), rng.random(n))
        want = kron_chain([[c.q0, 2.0 * c.qstar, c.q1] for c in params.cells()])
        assert np.array_equal(class_probabilities(params), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_monomial_vector_equals_kron_chain(self, n):
        p = np.random.default_rng(600 + n).random(n)
        want = kron_chain([[1.0, pi, pi * pi] for pi in p])
        assert np.array_equal(monomial_vector(p), want)


class TestClassSumVector:
    def test_delta_single_component(self):
        assert class_sum_vector(STAT_DELTA, 1) == pytest.approx([0.0, 2.0, 0.0])

    def test_zero_statistic(self):
        zero = Statistic(fn=lambda pt: 0.0, name="zero")
        assert np.all(class_sum_vector(zero, 3) == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_consistent_with_exact_mean(self, n):
        rng = np.random.default_rng(200 + n)
        params = ModelParams.make(rng.random(n), rng.random(n))
        sums = class_sum_vector(STAT_STR, n)
        probs = class_probabilities(params)
        sizes = np.array(
            [
                2.0 ** sum(1 for t in h if t == Tern.STAR)
                for h in itertools.product(
                    (Tern.ZERO, Tern.STAR, Tern.ONE), repeat=n
                )
            ]
        )
        mean = float((probs / sizes) @ sums)
        assert mean == pytest.approx(exact_moments(STAT_STR, params).mean, abs=1e-12)


class TestRaoBlackwellContract:
    @pytest.mark.parametrize("stat", [STAT_STR, STAT_DXDY, STAT_STR_DENOM])
    def test_mean_preserved_variance_reduced(self, stat):
        rng = np.random.default_rng(hash(stat.name) % 2**32)
        bar = Statistic(
            fn=lambda pt: balance_brute(stat, pt),
            name=f"balanced {stat.name}",
            balanced=True,
        )
        for _ in range(3):
            n = int(rng.integers(2, 6))
            params = ModelParams.make(
                rng.uniform(0.1, 0.9, n), rng.uniform(0.0, 0.9, n)
            )
            raw = exact_moments(stat, params)
            balanced = exact_moments(bar, params)
            assert balanced.mean == pytest.approx(raw.mean, abs=1e-12)
            assert balanced.variance < raw.variance

    def test_variance_equal_for_balanced_statistic(self):
        params = ModelParams.make([0.3, 0.6, 0.8], [0.1, 0.4, 0.0])
        raw = exact_moments(Statistic(fn=STAT_DELTA.fn, name="delta raw"), params)
        balanced = exact_moments(STAT_DELTA, params)
        assert balanced.variance == pytest.approx(raw.variance, abs=1e-12)

    def test_str_and_strbar_share_mean(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            params = ModelParams.make(rng.random(5), rng.random(5))
            assert exact_moments(STAT_STR, params).mean == pytest.approx(
                exact_moments(STAT_STR_BAR, params).mean, abs=1e-12
            )

    def test_variance_ordering_at_n6(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            params = ModelParams.make(rng.random(6), rng.random(6))
            v_str = exact_moments(STAT_STR, params).variance
            v_bar = exact_moments(STAT_STR_BAR, params).variance
            v_prime = exact_moments(STAT_STR_PRIME, params).variance
            assert v_str > v_bar > v_prime


class TestMse:
    def test_unbiased_equals_variance(self):
        params = ModelParams.make([0.2, 0.7], [0.3, 0.6])
        m = exact_moments(STAT_DELTA, params)
        assert mse_against(STAT_DELTA, m.mean, params) == pytest.approx(
            m.variance, abs=1e-12
        )

    def test_constant_statistic(self):
        params = ModelParams.make([0.5], [0.0])
        const = Statistic(fn=lambda pt: 2.0, name="c", balanced=True)
        assert mse_against(const, 5.0, params) == pytest.approx(9.0, abs=1e-12)


class TestClassRepresentative:
    def test_representative_is_in_class(self):
        for h in itertools.product((Tern.ZERO, Tern.STAR, Tern.ONE), repeat=3):
            rep = class_representative(h)
            assert disagreement_vector(rep).h == h
