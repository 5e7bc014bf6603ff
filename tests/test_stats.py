import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrbern.model import GraphPair, ModelParams
from corrbern.stats import (
    Counts,
    Tern,
    alignment_strength,
    alignment_strength_ratio_form,
    counts,
    counts_of_bits,
    delta_stat,
    densities,
    disagreement_vector,
    is_degenerate,
    param_functionals,
)


def all_points(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield GraphPair(bits[:n], bits[n:])


points_strategy = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
        st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
    )
).map(lambda xy: GraphPair(tuple(xy[0]), tuple(xy[1])))


class TestDisagreementVector:
    def test_direct_definition(self):
        h = disagreement_vector(GraphPair((1, 1, 0), (1, 0, 0)))
        assert h.h == (Tern.ONE, Tern.STAR, Tern.ZERO)
        assert h.delta == 1
        assert h.class_size() == 2

    @given(points_strategy)
    def test_equal_vectors_have_zero_delta(self, pt):
        same = GraphPair(pt.x, pt.x)
        assert disagreement_vector(same).delta == 0

    @given(points_strategy)
    def test_complement_has_full_delta(self, pt):
        comp = GraphPair(pt.x, tuple(1 - b for b in pt.x))
        assert disagreement_vector(comp).delta == pt.n

    def test_lex_index_ordering(self):
        # ZERO < STAR < ONE, leftmost component most significant.
        idx = [
            disagreement_vector(GraphPair(x, y)).lex_index()
            for x, y in [
                ((0, 0), (0, 0)),  # (0,0)
                ((0, 0), (0, 1)),  # (0,*)
                ((0, 1), (0, 1)),  # (0,1)
                ((1, 0), (0, 0)),  # (*,0)
                ((1, 1), (1, 1)),  # (1,1)
            ]
        ]
        assert idx == [0, 1, 2, 3, 8]


def bit_counts(pt):
    """(N, n11, n10, n01) straight from the bit definitions."""
    cells = list(zip(pt.x, pt.y))
    return (pt.n, cells.count((1, 1)), cells.count((1, 0)), cells.count((0, 1)))


class TestCounts:
    def check(self, pt):
        c = counts(pt)
        assert isinstance(c, Counts)
        assert tuple(c) == bit_counts(pt)
        assert c.delta == sum(xi != yi for xi, yi in zip(pt.x, pt.y))
        assert c.degenerate == (len(set(pt.x + pt.y)) == 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_definitions_exhaustive(self, n):
        for pt in all_points(n):
            self.check(pt)

    def test_bit_definitions_graph_pair(self):
        rng = np.random.default_rng(4950)
        x = rng.random(4950) < 0.3
        y = np.where(rng.random(4950) < 0.6, x, rng.random(4950) < 0.3)
        self.check(GraphPair.from_arrays(x, y))


def bit_string(bits):
    return "".join(str(b) for b in bits)


class TestCountsOfBits:
    """The string reducer gives the same count state as `counts`."""

    def check(self, pt):
        c = counts_of_bits(bit_string(pt.x), bit_string(pt.y))
        assert isinstance(c, Counts)
        assert c == counts(pt)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_counts_exhaustive(self, n):
        for pt in all_points(n):
            self.check(pt)

    def test_matches_counts_graph_pair(self):
        rng = np.random.default_rng(4950)
        x = rng.random(4950) < 0.3
        y = np.where(rng.random(4950) < 0.6, x, rng.random(4950) < 0.3)
        self.check(GraphPair.from_arrays(x, y))


class TestDensities:
    def test_hand_count(self):
        d = densities(GraphPair((1, 0), (1, 1)))
        assert d == pytest.approx((0.5, 1.0, 0.75, 0.5, 1.0))

    def test_all_zero(self):
        d = densities(GraphPair((0, 0, 0), (0, 0, 0)))
        assert d == (0, 0, 0, 0, 0)

    @given(points_strategy)
    def test_identities(self, pt):
        d = densities(pt)
        n = pt.n
        delta = delta_stat(pt)
        assert d.d_x + d.d_y == pytest.approx(d.d_cap + d.d_cup, abs=1e-12)
        assert d.d_xy == pytest.approx((d.d_cap + d.d_cup) / 2, abs=1e-12)
        assert n * d.d_cap + delta == pytest.approx(n * d.d_cup, abs=1e-12)
        assert d.d_cap == pytest.approx(d.d_xy - delta / (2 * n), abs=1e-12)
        assert d.d_cup == pytest.approx(d.d_xy + delta / (2 * n), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_identities_exhaustive(self, n):
        for pt in all_points(n):
            d = densities(pt)
            delta = delta_stat(pt)
            assert abs(d.d_x + d.d_y - d.d_cap - d.d_cup) <= 1e-15
            assert abs(n * d.d_cap + delta - n * d.d_cup) <= 1e-12


class TestDeltaStat:
    @given(points_strategy)
    def test_matches_star_count(self, pt):
        assert delta_stat(pt) == disagreement_vector(pt).delta

    @given(points_strategy)
    def test_density_identity(self, pt):
        d = densities(pt)
        assert delta_stat(pt) == pytest.approx(
            pt.n * (d.d_cup - d.d_cap), abs=1e-12
        )


class TestAlignmentStrength:
    def test_equal_vectors(self):
        assert alignment_strength(GraphPair((1, 0), (1, 0))) == pytest.approx(1.0)

    def test_hand_value(self):
        assert alignment_strength(GraphPair((1, 0), (1, 1))) == pytest.approx(0.0)

    def test_convention_points(self):
        assert alignment_strength(GraphPair((0, 0), (0, 0))) == 0.0
        assert alignment_strength(GraphPair((1, 1), (1, 1))) == 0.0
        assert alignment_strength(GraphPair((0, 0), (0, 0)), convention=0.4) == 0.4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_two_forms_agree(self, n):
        for pt in all_points(n):
            if is_degenerate(pt):
                continue
            assert abs(
                alignment_strength(pt) - alignment_strength_ratio_form(pt)
            ) <= 1e-12


class TestParamFunctionals:
    def test_homogeneous_independent(self):
        f = param_functionals(ModelParams.make([0.4] * 5, [0.0] * 5))
        assert f.rho_h == 0.0
        assert f.rho_t == pytest.approx(0.0, abs=1e-15)

    def test_full_correlation(self):
        f = param_functionals(ModelParams.make([0.2, 0.8], [1.0, 1.0]))
        assert f.rho_t == pytest.approx(1.0, abs=1e-15)
        assert f.expected_delta == 0.0

    def test_reference_row(self):
        f = param_functionals(
            ModelParams.make(
                [0.6892, 0.7224, 0.4795, 0.8985, 0.4022, 0.7043],
                [0.8429, 0.9852, 0.8006, 0.3118, 0.5768, 0.5751],
            )
        )
        assert f.rho_t == pytest.approx(0.7516, abs=5e-5)

    def test_degenerate_mu_convention(self):
        f = param_functionals(ModelParams.make([0.0, 0.0], [0.3, 0.4]))
        assert f.rho_h == 0.0 and f.rho_t == 0.0

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(0, 1, allow_nan=False), min_size=n, max_size=n
                ),
                st.lists(
                    st.floats(0, 1, allow_nan=False), min_size=n, max_size=n
                ),
            )
        )
    )
    def test_ranges(self, p_rho):
        f = param_functionals(ModelParams.make(*p_rho))
        assert -1e-12 <= f.rho_h <= 1 + 1e-12
        assert -1e-12 <= f.rho_t <= 1 + 1e-12
        assert f.sigma2 <= f.mu * (1 - f.mu) + 1e-12
        assert f.expected_delta >= 0.0

    @given(
        st.lists(st.floats(0.05, 0.95), min_size=2, max_size=6),
        st.floats(0, 1),
    )
    def test_common_rho_factorization(self, p, rho_e):
        n = len(p)
        f = param_functionals(ModelParams.make(p, [rho_e] * n))
        assert (1 - f.rho_t) == pytest.approx(
            (1 - rho_e) * (1 - f.rho_h), abs=1e-12
        )

    def test_expected_delta_formula(self):
        rng = np.random.default_rng(3)
        p = rng.random(7)
        rho = rng.random(7)
        f = param_functionals(ModelParams.make(p, rho))
        assert f.expected_delta == pytest.approx(
            2 * float(((1 - rho) * p * (1 - p)).sum()), abs=1e-12
        )
