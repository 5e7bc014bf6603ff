"""Kronecker-structured linear algebra behind unbiasedness analysis.

On the independence slice (all correlations zero) the expectation of a
statistic is a polynomial in p_1..p_N with per-variable degree at most
two, and the map from per-class sums to polynomial coefficients is the
N-fold Kronecker power of a fixed unit lower-triangular 3x3 matrix.
Invertibility of that matrix gives completeness of the disagreement
statistic, uniqueness of class sums among unbiased estimators, and
numerical certificates that some parameters admit no unbiased
estimator at all.  A fixed-mean (degenerate) variant of the parameter
space is modeled separately via a 5x16 coefficient matrix and a
weighted minimum-norm solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import CapacityError, DomainError, GraphPair, ModelParams, point_probability
from .oracle import class_probabilities, class_sum_vector, iter_points, kron_vectors
from .stats import disagreement_vector, param_functionals

# Maps (coefficients of (1-p)^2, p(1-p), p^2) stacked as columns for the
# class labels 0, star, 1; unit lower triangular, determinant 1.
BASE_MATRIX_A = np.array(
    [
        [1, 0, 0],
        [-2, 1, 0],
        [1, -1, 1],
    ],
    dtype=float,
)


class NoUnbiasedEstimatorError(RuntimeError):
    """The target function is outside the span of attainable expectations."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def kron_power_A(n: int) -> np.ndarray:
    """N-fold Kronecker power of BASE_MATRIX_A (3^n x 3^n, unit triangular)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > 8:
        raise CapacityError(f"dense 3^{n} x 3^{n} storage refused (n <= 8)")
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, BASE_MATRIX_A)
    return out


def monomial_vector(p: Sequence[float]) -> np.ndarray:
    """All 3^n monomials p_1^k1 ... p_n^kn, exponents lexicographic."""
    return kron_vectors(np.array([1.0, pi, pi * pi]) for pi in p)


def expectation_polynomial(stat: Callable[[GraphPair], float], n: int) -> np.ndarray:
    """Coefficients of E(stat) as a polynomial in p on the independence slice.

    Length 3^n, exponent tuples in {0,1,2}^n ordered lexicographically.
    """
    if n > 6:
        raise CapacityError(f"expectation polynomial limited to n <= 6, got {n}")
    return kron_power_A(n) @ class_sum_vector(stat, n)


def evaluate_polynomial(coeffs: np.ndarray, p: Sequence[float]) -> float:
    return float(coeffs @ monomial_vector(p))


def verify_unbiasedness_characterization(
    stat_s: Callable[[GraphPair], float],
    stat_t: Callable[[GraphPair], float],
    n: int,
    tol: float = 1e-12,
    rng: np.random.Generator | None = None,
) -> bool:
    """True iff S and T have identical class sums.

    Cross-checks that the verdict agrees with equality of the two
    expectation polynomials at random interior parameter points.
    """
    sums_s = class_sum_vector(stat_s, n)
    sums_t = class_sum_vector(stat_t, n)
    equal_sums = bool(np.max(np.abs(sums_s - sums_t)) <= tol)

    rng = rng or np.random.default_rng(0)
    a = kron_power_A(n)
    gs = a @ sums_s
    gt = a @ sums_t
    for _ in range(5):
        p = rng.uniform(0.05, 0.95, size=n)
        diff = abs(evaluate_polynomial(gs, p) - evaluate_polynomial(gt, p))
        if equal_sums and diff > 1e-9:
            raise AssertionError(
                "class sums equal but expectations differ; internal inconsistency"
            )
    return equal_sums


def verify_completeness(n: int, matrix: np.ndarray | None = None) -> bool:
    """Certify the coefficient map has trivial nullspace.

    Checks unit-triangularity of the Kronecker power (hence determinant 1),
    solves the homogeneous system for random right-hand perturbations to
    confirm stable back-substitution, and falsifies random nonzero class
    functions against a full-rank interpolation system.
    """
    a = kron_power_A(n) if matrix is None else np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if not np.allclose(np.triu(a, 1), 0.0):
        return False
    if not np.all(np.diag(a) != 0.0):
        return False
    if matrix is None and not np.all(np.diag(a) == 1.0):
        return False

    rng = np.random.default_rng(n)
    # Homogeneous solves: x = A^-1 * eps must stay O(eps).
    for _ in range(3):
        eps = 1e-14 * rng.standard_normal(dim)
        x = solve_unit_lower(a, eps)
        if np.max(np.abs(x)) > 1e-8:
            return False

    # A nonzero f with E f(H) = 0 at 3^n generic parameter points would
    # need the class-probability interpolation matrix to be singular.
    if matrix is None:
        axes = np.linspace(0.2, 0.8, 3)
        grid = list(itertools.product(axes, repeat=n))
        v = np.array(
            [
                class_probabilities(ModelParams.make(p, [0.0] * n))
                for p in grid
            ]
        )
        if np.linalg.matrix_rank(v) < dim:
            return False
    return True


def solve_unit_lower(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution; `a` must be lower triangular with nonzero diagonal."""
    dim = a.shape[0]
    x = np.zeros(dim)
    for i in range(dim):
        x[i] = (rhs[i] - a[i, :i] @ x[:i]) / a[i, i]
    return x


def fit_tensor_polynomial(
    target: Callable[[Sequence[float]], float], axes: Sequence[float], n: int
) -> np.ndarray:
    """Interpolate `target` on the tensor grid axes^n by the unique
    polynomial of per-variable degree <= 2; returns its 3^n coefficients."""
    axes = list(axes)
    if len(axes) != 3 or len(set(axes)) != 3:
        raise DomainError(f"need 3 distinct axis values, got {axes}")
    grid = list(itertools.product(axes, repeat=n))
    v = np.array([monomial_vector(p) for p in grid])
    values = np.array([target(p) for p in grid])
    return np.linalg.solve(v, values)


def check_no_unbiased_estimator_rhoH(
    n: int,
    axes: Sequence[float] = (0.3, 0.5, 0.7),
    n_probes: int = 50,
    rng: np.random.Generator | None = None,
    target: Callable[[Sequence[float]], float] | None = None,
) -> float:
    """Max residual of the degree-compatible polynomial fit to rho_H.

    A strictly positive residual certifies that rho_H (with all
    correlations zero) is not a polynomial of per-variable degree <= 2,
    hence has no unbiased estimator.  For n = 1 the residual is zero and
    means nothing (rho_H is identically zero there).  Passing an
    alternative `target` supports positive controls such as sigma^2.
    """
    if target is None:
        def target(p):
            return param_functionals(
                ModelParams.make(p, [0.0] * len(p))
            ).rho_h

    coeffs = fit_tensor_polynomial(target, axes, n)
    rng = rng or np.random.default_rng(7)
    worst = 0.0
    for _ in range(n_probes):
        p = rng.uniform(0.05, 0.95, size=n)
        worst = max(worst, abs(evaluate_polynomial(coeffs, p) - target(p)))
    return worst


def check_no_unbiased_estimator_rhoE(
    n: int, matrix: np.ndarray | None = None
) -> bool:
    """Numerical form of the no-unbiased-rho_E argument.

    An estimator unbiased for rho_E, which vanishes on the independence
    slice, has zero class sums: the coefficient map has trivial nullspace.
    Zero class sums give zero expectation at the witness p = 0.4,
    rho = 1/2, where rho_E = 1/2, because each sample point there has
    probability P(class)/2^Delta.  That last step is what is checked.
    """
    if n > 5:
        raise CapacityError(f"check limited to n <= 5, got {n}")
    a = kron_power_A(n) if matrix is None else np.asarray(matrix, dtype=float)
    if np.any(np.diag(a) == 0.0):
        return False
    witness = ModelParams.make([0.4] * n, [0.5] * n)
    class_probs = class_probabilities(witness)
    for point in iter_points(n):
        h = disagreement_vector(point)
        share = class_probs[h.lex_index()] / h.class_size()
        if not math.isclose(point_probability(witness, point), share, rel_tol=1e-12):
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed-mean (degenerate) two-component system
# ---------------------------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


@dataclass(frozen=True)
class DegenerateSystem:
    """N=2 independence-slice model with the mean of (p_1, p_2) fixed.

    With p_2 = 2*mu - p, each of the 16 sample points has probability a
    degree-4 polynomial phi in the single free variable p.  M stacks the
    5 coefficients of each phi as a column; points are ordered
    lexicographically by (x_1, x_2, y_1, y_2).
    """

    mu: float
    m: np.ndarray  # 5 x 16
    points: tuple[GraphPair, ...]

    @property
    def delta_radius(self) -> float:
        return min(self.mu, 1.0 - self.mu)

    def point_probs(self, p: float) -> np.ndarray:
        """phi_j(p) for all 16 points."""
        powers = np.array([p**k for k in range(5)])
        return powers @ self.m

    def expectation_coeffs(self, stat_values: Sequence[float]) -> np.ndarray:
        """Degree-4 coefficient vector of E(S) = sum_j phi_j(p) S(z_j)."""
        return self.m @ np.asarray(stat_values, dtype=float)


def build_degenerate_system(mu: float) -> DegenerateSystem:
    if not (0.0 < mu < 1.0):
        raise DomainError(f"mu must lie strictly inside (0, 1), got {mu}")
    # Ascending coefficient vectors of the four per-slot linear factors.
    first = {1: np.array([0.0, 1.0]), 0: np.array([1.0, -1.0])}  # p / 1-p
    second = {
        1: np.array([2.0 * mu, -1.0]),  # 2mu - p
        0: np.array([1.0 - 2.0 * mu, 1.0]),  # 1 - 2mu + p
    }
    points = []
    columns = []
    for x1, x2, y1, y2 in itertools.product((0, 1), repeat=4):
        points.append(GraphPair((x1, x2), (y1, y2)))
        poly = _poly_mul(
            _poly_mul(first[x1], first[y1]),
            _poly_mul(second[x2], second[y2]),
        )
        columns.append(poly)
    m = np.column_stack(columns)
    return DegenerateSystem(mu=mu, m=m, points=tuple(points))


def degenerate_min_variance(
    system: DegenerateSystem, g: Sequence[float], p: float
) -> np.ndarray:
    """Unbiased estimator of g with least variance at the given p.

    Solves min sum_j phi_j(p) S_j^2 subject to M S = g by rescaling the
    columns of M with 1/sqrt(phi_j(p)) and taking the Moore-Penrose
    minimum-norm solution.  Raises NoUnbiasedEstimatorError when g is
    outside the column space of M.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (5,):
        raise DomainError(f"g must have 5 coefficients, got shape {g.shape}")
    lo = system.mu - system.delta_radius
    hi = system.mu + system.delta_radius
    if not (lo < p < hi):
        raise DomainError(f"p={p} outside the open interval ({lo}, {hi})")
    weights = system.point_probs(p)
    if np.any(weights <= 0.0):
        raise DomainError(f"nonpositive point probability at p={p}")

    # Feasibility: g must lie in the column space of M.
    lsq, *_ = np.linalg.lstsq(system.m, g, rcond=None)
    residual = float(np.max(np.abs(system.m @ lsq - g)))
    if residual > 1e-9:
        raise NoUnbiasedEstimatorError(
            f"target polynomial is not attainable (residual {residual:.3e})",
            residual,
        )

    root_w = np.sqrt(weights)
    m_prime = system.m / root_w[None, :]
    s_prime = np.linalg.pinv(m_prime, rcond=1e-10) @ g
    return s_prime / root_w
