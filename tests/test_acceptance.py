"""Acceptance gate: one check per shipped guarantee, printed as PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here and must not be loosened; a
failing line means the corresponding guarantee does not hold.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from corrbern.balance import (
    STAT_DXDY,
    STAT_STR,
    STAT_STR_DENOM,
    Statistic,
    balance_brute,
    balanced_alignment_strength,
    balanced_dxdy,
    modified_alignment_strength,
)
from corrbern.cli import main
from corrbern.experiment import ExperimentConfig, exact_experiment_row, run_experiment
from corrbern.linsys import (
    build_degenerate_system,
    check_no_unbiased_estimator_rhoE,
    check_no_unbiased_estimator_rhoH,
    degenerate_min_variance,
    evaluate_polynomial,
    expectation_polynomial,
    kron_power_A,
    verify_completeness,
)
from corrbern.model import GraphPair, ModelParams
from corrbern.oracle import class_probabilities, class_sum_vector, exact_moments
from corrbern.stats import densities, disagreement_vector, param_functionals

from reference_tables import (
    P_HALF_EXPECTED,
    P_HALF_RECOVERED_RHO,
    RHO_ZERO_EXPECTED,
    RHO_ZERO_RECOVERED_P,
    UNIFORM_BOTH_EXPECTED,
    UNIFORM_BOTH_PARAMS,
    UNIFORM_BOTH_RECOVERED,
)

COLUMNS = ("E_str", "E_strprime", "rho_T", "Var_str", "Var_strbar", "Var_strprime")

TABLE_CASES = []
for i, ((p, rho), expected) in enumerate(
    zip(UNIFORM_BOTH_RECOVERED, UNIFORM_BOTH_EXPECTED)
):
    TABLE_CASES.append(("uniform-both", i, ModelParams.make(p, rho), expected))
for i, (p, expected) in enumerate(zip(RHO_ZERO_RECOVERED_P, RHO_ZERO_EXPECTED)):
    TABLE_CASES.append(
        ("rho-zero", i, ModelParams.make(p, [0.0] * len(p)), expected)
    )
for i, (rho, expected) in enumerate(zip(P_HALF_RECOVERED_RHO, P_HALF_EXPECTED)):
    TABLE_CASES.append(
        ("p-half", i, ModelParams.make([0.5] * len(rho), rho), expected)
    )


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}  {criterion}: {detail}")


def all_points(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield GraphPair(bits[:n], bits[n:])


@pytest.mark.parametrize(
    "mode,row,params,expected",
    TABLE_CASES,
    ids=[f"{mode}-row{row}" for mode, row, _, _ in TABLE_CASES],
)
def test_criterion_1_table_reproduction(mode, row, params, expected):
    start = time.perf_counter()
    result = exact_experiment_row(params)
    elapsed = time.perf_counter() - start
    got = (
        result.e_str,
        result.e_strprime,
        result.rho_t,
        result.var_str,
        result.var_strbar,
        result.var_strprime,
    )
    errors = [abs(g - e) for g, e in zip(got, expected)]
    ok = max(errors) <= 5e-5 and elapsed < 1.0
    worst = COLUMNS[int(np.argmax(errors))]
    report(
        "criterion 1 (table reproduction)",
        ok,
        f"{mode} row {row}: max column error {max(errors):.2e} "
        f"({worst}), {elapsed * 1e3:.1f} ms",
    )
    assert elapsed < 1.0
    for col, g, e in zip(COLUMNS, got, expected):
        assert g == pytest.approx(e, abs=5e-5), f"{mode} row {row} column {col}"


def test_criterion_1_recovered_rows_within_published_rounding():
    """Each recovered uniform-both row rounds to its published 4-decimal row."""
    assert len(UNIFORM_BOTH_RECOVERED) == len(UNIFORM_BOTH_PARAMS)
    worst = 0.0
    for (p, rho), (pub_p, pub_rho) in zip(UNIFORM_BOTH_RECOVERED, UNIFORM_BOTH_PARAMS):
        assert len(p) == len(rho) == len(pub_p) == len(pub_rho) == 6
        for got, published in zip(p + rho, pub_p + pub_rho):
            worst = max(worst, abs(got - published))
    ok = worst <= 5e-5
    report(
        "criterion 1 (published rounding box)",
        ok,
        f"uniform-both recovered rows: max parameter offset {worst:.2e}",
    )
    assert ok


def test_criterion_2_variance_ordering():
    start = time.perf_counter()
    total = 0
    holds = 0
    for mode in ("uniform-both", "rho-zero", "p-half"):
        rows = run_experiment(
            ExperimentConfig(mode=mode, replicates=200, base_seed=20260823)
        )
        total += len(rows)
        holds += sum(
            1 for r in rows if r.var_str > r.var_strbar > r.var_strprime
        )
    elapsed = time.perf_counter() - start
    ok = holds == total == 600 and elapsed < 120.0
    report(
        "criterion 2 (variance ordering)",
        ok,
        f"strict Var(str) > Var(str_bar) > Var(str') in {holds}/{total} "
        f"replicates, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_oracle_equivalence():
    # The brute class means come from the class sums of the 4^n points
    # (oracle.class_sum_vector); tests/test_balance.py ties balance_brute
    # to the same sums.
    worst_bar = 0.0
    worst_closed = 0.0
    num = Statistic(
        fn=lambda pt: densities(pt).d_cap - densities(pt).d_x * densities(pt).d_y,
        name="num",
    )
    den = Statistic(
        fn=lambda pt: densities(pt).d_xy - densities(pt).d_x * densities(pt).d_y,
        name="den",
    )
    for n in range(1, 7):
        str_sums, dxdy_sums, num_sums, den_sums = (
            class_sum_vector(stat, n) for stat in (STAT_STR, STAT_DXDY, num, den)
        )
        for pt in all_points(n):
            h = disagreement_vector(pt)
            idx, size = h.lex_index(), h.class_size()
            worst_bar = max(
                worst_bar, abs(balanced_alignment_strength(pt) - str_sums[idx] / size)
            )
            worst_closed = max(
                worst_closed, abs(balanced_dxdy(pt) - dxdy_sums[idx] / size)
            )
            if den_sums[idx] != 0.0:
                worst_closed = max(
                    worst_closed,
                    abs(modified_alignment_strength(pt) - num_sums[idx] / den_sums[idx]),
                )
    ok = worst_bar <= 1e-10 and worst_closed <= 1e-10
    report(
        "criterion 3 (oracle equivalence)",
        ok,
        f"N<=6 exhaustive: linear-time str_bar err {worst_bar:.2e}, "
        f"closed forms err {worst_closed:.2e}",
    )
    assert ok


def test_criterion_4_rao_blackwell():
    rng = np.random.default_rng(414)
    worst_mean = 0.0
    strict = True
    for stat in (STAT_STR, STAT_DXDY, STAT_STR_DENOM):
        bar = Statistic(
            fn=lambda pt, s=stat: balance_brute(s, pt),
            name=f"balanced {stat.name}",
            balanced=True,
        )
        for _ in range(20):
            n = int(rng.integers(2, 6))
            params = ModelParams.make(
                rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 0.95, n)
            )
            raw = exact_moments(stat, params)
            bal = exact_moments(bar, params)
            worst_mean = max(worst_mean, abs(raw.mean - bal.mean))
            strict = strict and bal.variance < raw.variance
    ok = worst_mean <= 1e-12 and strict
    report(
        "criterion 4 (Rao-Blackwell contract)",
        ok,
        f"60 parameter points x 3 statistics: mean gap {worst_mean:.2e}, "
        f"strict variance reduction {'held' if strict else 'VIOLATED'}",
    )
    assert ok


def test_criterion_5_kronecker_identity():
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        target = int(rng.integers(0, 3**n))
        indicator = Statistic(
            fn=lambda pt, t=target: float(
                disagreement_vector(pt).lex_index() == t
            ),
            name="class indicator",
        )
        coeffs = expectation_polynomial(indicator, n)
        p = rng.uniform(0.05, 0.95, n)
        direct = class_probabilities(ModelParams.make(p, [0.0] * n))[target]
        worst = max(worst, abs(evaluate_polynomial(coeffs, p) - direct))
    dets_ok = all(
        abs(np.linalg.det(kron_power_A(n)) - 1.0) <= 1e-6 for n in range(1, 7)
    )
    nullspace_ok = all(verify_completeness(n) for n in range(1, 5))
    ok = worst <= 1e-12 and dets_ok and nullspace_ok
    report(
        "criterion 5 (Kronecker identity)",
        ok,
        f"50 (h, p) pairs err {worst:.2e}; det=1 for N<=6: {dets_ok}; "
        f"trivial nullspace: {nullspace_ok}",
    )
    assert ok


def test_criterion_6_sigma2_umvue():
    from corrbern.balance import STAT_SIGMA2_UMVUE

    rng = np.random.default_rng(616)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        params = ModelParams.make(rng.uniform(0.05, 0.95, n), [0.0] * n)
        got = exact_moments(STAT_SIGMA2_UMVUE, params).mean
        worst = max(worst, abs(got - param_functionals(params).sigma2))
    ok = worst <= 1e-12
    report(
        "criterion 6 (sigma^2 UMVUE)",
        ok,
        f"20 independence-slice points, worst bias {worst:.2e}",
    )
    assert ok


def test_criterion_7_non_existence():
    residual = check_no_unbiased_estimator_rhoH(2)

    def sigma2(p):
        return param_functionals(ModelParams.make(p, [0.0] * len(p))).sigma2

    control = check_no_unbiased_estimator_rhoH(2, target=sigma2)
    rho_e_ok = all(check_no_unbiased_estimator_rhoE(n) for n in range(1, 6))
    ok = residual > 1e-3 and control <= 1e-12 and rho_e_ok
    report(
        "criterion 7 (non-existence certificates)",
        ok,
        f"rho_H fit residual {residual:.2e} (> 1e-3), sigma^2 control "
        f"{control:.2e} (<= 1e-12), rho_E check N<=5: {rho_e_ok}",
    )
    assert ok


def test_criterion_8_degenerate_demo():
    system = build_degenerate_system(0.25)
    values = np.array(
        [float(disagreement_vector(pt).delta) for pt in system.points]
    )
    g = system.expectation_coeffs(values)
    solutions = {}
    residuals = {}
    for p in (0.15, 0.35):
        s = degenerate_min_variance(system, g, p)
        solutions[p] = s
        residuals[p] = float(np.max(np.abs(system.m @ s - g)))

    # Independent oracle: same weighted QP solved by SLSQP; the threshold
    # for "the two solutions genuinely differ" is half the oracle's gap.
    def qp(p):
        w = system.point_probs(p)
        res = minimize(
            lambda s: float(w @ (s * s)),
            np.zeros(16),
            jac=lambda s: 2.0 * w * s,
            constraints=[{"type": "eq", "fun": lambda s: system.m @ s - g}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert res.success, res.message
        return res.x

    oracle_gap = float(np.max(np.abs(qp(0.15) - qp(0.35))))
    gap = float(np.max(np.abs(solutions[0.15] - solutions[0.35])))
    ok = (
        gap > 0.5 * oracle_gap
        and oracle_gap > 1e-6
        and max(residuals.values()) < 1e-9
    )
    report(
        "criterion 8 (degenerate demonstration)",
        ok,
        f"solution gap {gap:.4f} (oracle gap {oracle_gap:.4f}), "
        f"max residual {max(residuals.values()):.2e}",
    )
    assert ok


def test_criterion_9_mse_audit():
    rng = np.random.default_rng(919)
    total = 0
    holds = 0
    counterexamples = []
    for n in (3, 4, 5, 6):
        for _ in range(250):
            params = ModelParams.make(rng.random(n), rng.random(n))
            row = exact_experiment_row(params)
            total += 1
            if row.mse_strprime <= row.mse_strbar:
                holds += 1
            elif len(counterexamples) < 5:
                counterexamples.append(
                    (params.p, params.rho, row.mse_strprime, row.mse_strbar)
                )
    detail = f"MSE(str') <= MSE(str_bar) in {holds}/{total} random points"
    if counterexamples:
        detail += "; COUNTEREXAMPLES FOUND (audit only, not a failure):"
        for p, rho, m_prime, m_bar in counterexamples:
            detail += f"\n    p={p} rho={rho}: {m_prime:.6g} > {m_bar:.6g}"
    report("criterion 9 (MSE dominance audit)", True, detail)
    assert total >= 1000


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        code = main(
            [
                "experiment",
                "--mode",
                "uniform-both",
                "--replicates",
                "25",
                "--seed",
                "1010",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(
        "criterion 10 (determinism)",
        ok,
        f"two identical runs: CSVs {'byte-identical' if ok else 'DIFFER'} "
        f"({len(outputs[0])} bytes)",
    )
    assert ok
