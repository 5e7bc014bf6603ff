import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from corrbern.balance import (
    STAT_DCAP,
    STAT_DELTA,
    STAT_DX,
    STAT_DXY,
    STAT_DY,
    STAT_STR,
)
from corrbern import linsys
from corrbern.linsys import (
    BASE_MATRIX_A,
    DegenerateSystem,
    NoUnbiasedEstimatorError,
    build_degenerate_system,
    check_no_unbiased_estimator_rhoE,
    check_no_unbiased_estimator_rhoH,
    degenerate_min_variance,
    evaluate_polynomial,
    expectation_polynomial,
    kron_power_A,
    monomial_vector,
    solve_unit_lower,
    verify_completeness,
    verify_unbiasedness_characterization,
)
from corrbern.model import DomainError, ModelParams, point_probability
from corrbern.oracle import exact_moments, iter_points
from corrbern.stats import param_functionals

# The 9 x 9 coefficient map for two components, written out longhand.
KRON2_REFERENCE = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [-2, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, -1, 1, 0, 0, 0, 0, 0, 0],
        [-2, 0, 0, 1, 0, 0, 0, 0, 0],
        [4, -2, 0, -2, 1, 0, 0, 0, 0],
        [-2, 2, -2, 1, -1, 1, 0, 0, 0],
        [1, 0, 0, -1, 0, 0, 1, 0, 0],
        [-2, 1, 0, 2, -1, 0, -2, 1, 0],
        [1, -1, 1, -1, 1, -1, 1, -1, 1],
    ],
    dtype=float,
)


class TestKronPower:
    def test_n1_is_base(self):
        assert np.array_equal(kron_power_A(1), BASE_MATRIX_A)

    def test_n2_reference(self):
        assert np.array_equal(kron_power_A(2), KRON2_REFERENCE)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_triangular(self, n):
        a = kron_power_A(n)
        assert np.allclose(np.triu(a, 1), 0.0)
        assert np.all(np.diag(a) == 1.0)
        # determinant of a unit triangular matrix
        assert np.linalg.det(a) == pytest.approx(1.0, rel=1e-9)

    def test_forward_substitution_inverts(self):
        a = kron_power_A(3)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(27)
        x = solve_unit_lower(a, rhs)
        assert a @ x == pytest.approx(rhs, abs=1e-10)


class TestExpectationPolynomial:
    def test_delta_single_component(self):
        # E(Delta) = 2p(1-p) = 0 + 2p - 2p^2.
        coeffs = expectation_polynomial(STAT_DELTA, 1)
        assert coeffs == pytest.approx([0.0, 2.0, -2.0], abs=1e-12)

    def test_dx_two_components(self):
        # E(d_X) = (p1 + p2)/2: coefficients at exponents (0,1) and (1,0).
        coeffs = expectation_polynomial(STAT_DX, 2)
        expected = np.zeros(9)
        expected[1] = 0.5  # p2
        expected[3] = 0.5  # p1
        assert coeffs == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exact_mean_on_slice(self, n):
        rng = np.random.default_rng(n)
        coeffs = expectation_polynomial(STAT_STR, n)
        for _ in range(5):
            p = rng.uniform(0.05, 0.95, n)
            params = ModelParams.make(p, [0.0] * n)
            assert evaluate_polynomial(coeffs, p) == pytest.approx(
                exact_moments(STAT_STR, params).mean, abs=1e-12
            )

    def test_monomial_vector_order(self):
        # exponents lexicographic, leftmost variable most significant
        v = monomial_vector([2.0, 3.0])
        assert v == pytest.approx([1, 3, 9, 2, 6, 18, 4, 12, 36])

    def test_point_probability_is_the_kron_row(self):
        # phi_z(p) on the slice equals (1-p)^2 / p(1-p) / p^2 products,
        # whose coefficient stack is what kron_power_A columns encode.
        n = 3
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 0.9, n)
        params = ModelParams.make(p, [0.0] * n)
        total = sum(point_probability(params, pt) for pt in iter_points(n))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestUnbiasednessCharacterization:
    def test_dx_dy_equivalent(self):
        assert verify_unbiasedness_characterization(STAT_DX, STAT_DY, 3)

    def test_dxy_dcap_not_equivalent(self):
        assert not verify_unbiasedness_characterization(STAT_DXY, STAT_DCAP, 3)

    def test_shifted_statistic_not_equivalent(self):
        shifted = lambda pt: STAT_DX(pt) + 0.25
        assert not verify_unbiasedness_characterization(STAT_DX, shifted, 2)


class TestCompleteness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_true_map_complete(self, n):
        assert verify_completeness(n)

    def test_rank_deficient_control(self):
        bad = KRON2_REFERENCE.copy()
        bad[4, 4] = 0.0
        assert not verify_completeness(2, matrix=bad)

    def test_nontriangular_control(self):
        bad = KRON2_REFERENCE.copy()
        bad[0, 5] = 1.0
        assert not verify_completeness(2, matrix=bad)


class TestNonExistenceCertificates:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rho_h_residual_positive(self, n):
        assert check_no_unbiased_estimator_rhoH(n) > 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sigma2_positive_control(self, n):
        # sigma^2 IS a compatible polynomial, so the residual must vanish.
        def sigma2(p):
            return param_functionals(ModelParams.make(p, [0.0] * len(p))).sigma2

        assert check_no_unbiased_estimator_rhoH(n, target=sigma2) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rho_e_certificate(self, n):
        assert check_no_unbiased_estimator_rhoE(n)

    def test_rho_e_negative_control(self):
        bad = KRON2_REFERENCE.copy()
        bad[8, 8] = 0.0
        assert not check_no_unbiased_estimator_rhoE(2, matrix=bad)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rho_e_asymmetric_law_rejected(self, n, monkeypatch):
        # A law that told (1, 0) from (0, 1) apart would break the step from
        # zero class sums to zero expectation at correlated parameters.
        def asymmetric(params, point):
            return (1.5 if point.x > point.y else 1.0) * point_probability(params, point)

        monkeypatch.setattr(linsys, "point_probability", asymmetric)
        assert not check_no_unbiased_estimator_rhoE(n)


def _qp_oracle(system: DegenerateSystem, g: np.ndarray, p: float) -> np.ndarray:
    """Independent solve of min sum_j phi_j(p) S_j^2 s.t. M S = g (SLSQP)."""
    w = system.point_probs(p)
    cons = {"type": "eq", "fun": lambda s: system.m @ s - g}
    res = minimize(
        lambda s: float(w @ (s * s)),
        np.zeros(16),
        jac=lambda s: 2.0 * w * s,
        constraints=[cons],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success, res.message
    return res.x


class TestDegenerateSystem:
    def test_probs_sum_to_one(self):
        system = build_degenerate_system(0.25)
        for p in (0.05, 0.15, 0.35, 0.45):
            assert system.point_probs(p).sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(system.point_probs(p) > 0.0)

    def test_matches_model_probabilities(self):
        mu = 0.3
        system = build_degenerate_system(mu)
        p = 0.22
        params = ModelParams.make([p, 2 * mu - p], [0.0, 0.0])
        expected = [point_probability(params, pt) for pt in system.points]
        assert system.point_probs(p) == pytest.approx(expected, abs=1e-12)

    def test_rank_deficiency(self):
        system = build_degenerate_system(0.25)
        assert system.m.shape == (5, 16)
        assert np.linalg.matrix_rank(system.m) == 5  # nullspace dim 11

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            build_degenerate_system(0.0)
        system = build_degenerate_system(0.25)
        with pytest.raises(DomainError):
            degenerate_min_variance(system, np.zeros(5), p=0.6)

    def test_zero_target_gives_zero_estimator(self):
        system = build_degenerate_system(0.25)
        s = degenerate_min_variance(system, np.zeros(5), p=0.15)
        assert np.max(np.abs(s)) <= 1e-10

    def test_delta_target_feasible_and_unbiased(self):
        system = build_degenerate_system(0.25)
        g = system.expectation_coeffs(
            [STAT_DELTA(pt) for pt in system.points]
        )
        for p in (0.15, 0.35):
            s = degenerate_min_variance(system, g, p)
            assert system.expectation_coeffs(s) == pytest.approx(g, abs=1e-9)

    def test_solutions_depend_on_p(self):
        system = build_degenerate_system(0.25)
        g = system.expectation_coeffs(
            [STAT_DELTA(pt) for pt in system.points]
        )
        s15 = degenerate_min_variance(system, g, 0.15)
        s35 = degenerate_min_variance(system, g, 0.35)
        assert np.max(np.abs(s15 - s35)) > 1e-3

    @pytest.mark.parametrize("p", [0.15, 0.35])
    def test_agrees_with_independent_qp_solver(self, p):
        system = build_degenerate_system(0.25)
        g = system.expectation_coeffs(
            [STAT_DELTA(pt) for pt in system.points]
        )
        s = degenerate_min_variance(system, g, p)
        s_qp = _qp_oracle(system, g, p)
        assert s == pytest.approx(s_qp, abs=1e-5)
        w = system.point_probs(p)
        assert float(w @ (s * s)) <= float(w @ (s_qp * s_qp)) + 1e-10

    def test_never_beats_delta_variance_unfairly(self):
        # The tailored estimator must not exceed Delta's second moment
        # at its own design point.
        system = build_degenerate_system(0.25)
        values = np.array([STAT_DELTA(pt) for pt in system.points])
        g = system.expectation_coeffs(values)
        for p in (0.15, 0.35):
            s = degenerate_min_variance(system, g, p)
            w = system.point_probs(p)
            assert float(w @ (s * s)) <= float(w @ (values * values)) + 1e-10

    def test_infeasible_target_rejected(self):
        system = build_degenerate_system(0.25)
        # rho_H-like target: quartic coefficients not in the column space
        g = np.array([0.3, -1.0, 2.0, 0.7, 5.0])
        try:
            degenerate_min_variance(system, g, 0.15)
        except NoUnbiasedEstimatorError as exc:
            assert exc.residual > 0.0
        else:
            # if the random target happens to be feasible, unbiasedness
            # must hold exactly
            s = degenerate_min_variance(system, g, 0.15)
            assert system.expectation_coeffs(s) == pytest.approx(g, abs=1e-9)
