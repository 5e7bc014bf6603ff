"""Self-check battery behind the `verify` CLI subcommand.

Each check returns (name, passed, detail).  The fast level keeps every
sweep at small N; the full level adds the N = 8 brute-force balancing
sweep and the larger Kronecker systems.
"""

from __future__ import annotations

import numpy as np

from . import balance, linsys, oracle
from .model import ModelParams
from .stats import (
    alignment_strength,
    alignment_strength_ratio_form,
    delta_stat,
    densities,
    is_degenerate,
    param_functionals,
)

# Calibrated against the dense evaluation in scripts/calibrate_thresholds.py:
# the observed N=2 fit residual for rho_H is ~0.02, four orders above this.
RHO_H_RESIDUAL_THRESHOLD = 1e-3


def check_density_identities(n_max: int) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, n_max + 1):
        for pt in oracle.iter_points(n):
            d = densities(pt)
            delta = delta_stat(pt)
            worst = max(
                worst,
                abs(d.d_x + d.d_y - (d.d_cap + d.d_cup)),
                abs(d.d_xy - 0.5 * (d.d_cap + d.d_cup)),
                abs(n * d.d_cap + delta - n * d.d_cup),
                abs(d.d_cap - (d.d_xy - delta / (2 * n))),
                abs(d.d_cup - (d.d_xy + delta / (2 * n))),
            )
    return worst <= 1e-12, f"max residual {worst:.2e}"


def check_str_forms_agree(n_max: int) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, n_max + 1):
        for pt in oracle.iter_points(n):
            if is_degenerate(pt):
                continue
            worst = max(
                worst,
                abs(alignment_strength(pt) - alignment_strength_ratio_form(pt)),
            )
    return worst <= 1e-12, f"max |eq1 - eq2| {worst:.2e}"


def check_balancing_oracles(n_max: int) -> tuple[bool, str]:
    worst_bar = worst_prime = worst_dxdy = 0.0

    def str_num(pt):
        d = densities(pt)
        return d.d_cap - d.d_x * d.d_y

    def str_den(pt):
        d = densities(pt)
        return d.d_xy - d.d_x * d.d_y

    num = balance.Statistic(fn=str_num, name="num")
    den = balance.Statistic(fn=str_den, name="den")
    for n in range(1, n_max + 1):
        for pt in oracle.iter_points(n):
            brute_bar = balance.balance_brute(balance.STAT_STR, pt)
            worst_bar = max(
                worst_bar, abs(balance.balanced_alignment_strength(pt) - brute_bar)
            )
            worst_dxdy = max(
                worst_dxdy,
                abs(
                    balance.balanced_dxdy(pt)
                    - balance.balance_brute(balance.STAT_DXDY, pt)
                ),
            )
            if not is_degenerate(pt):
                quotient = balance.balance_brute(num, pt) / balance.balance_brute(
                    den, pt
                )
                worst_prime = max(
                    worst_prime,
                    abs(balance.modified_alignment_strength(pt) - quotient),
                )
    ok = worst_bar <= 1e-10 and worst_prime <= 1e-12 and worst_dxdy <= 1e-12
    return ok, (
        f"str_bar {worst_bar:.2e}, str_prime {worst_prime:.2e}, "
        f"dxdy {worst_dxdy:.2e}"
    )


def check_strbar_negative_control(n: int = 3) -> tuple[bool, str]:
    """A deliberately wrong binomial weight must be caught by the oracle."""

    def mutated(pt):
        import math

        if is_degenerate(pt):
            return 0.0
        d = densities(pt)
        delta = delta_stat(pt)
        acc = 0.0
        for i in range(delta + 1):
            w = math.comb(delta, max(i - 1, 0)) / 2.0**delta  # off-by-one weight
            prod = (d.d_cap + i / n) * (d.d_cap + (delta - i) / n)
            acc += w * (d.d_cap - prod) / (d.d_xy - prod)
        return acc

    worst = max(
        abs(mutated(pt) - balance.balance_brute(balance.STAT_STR, pt))
        for pt in oracle.iter_points(n)
    )
    return worst > 1e-6, f"mutant deviates by {worst:.2e} (must be > 1e-6)"


def check_kron_identity(n_max: int, trials: int = 50) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        h = rng.integers(0, 3, size=n)
        p = rng.uniform(0.05, 0.95, size=n)
        lhs = 1.0
        for hi, pi in zip(h, p):
            lhs *= ((1 - pi) ** 2, pi * (1 - pi), pi * pi)[hi]
        a = linsys.kron_power_A(n)
        col = 0
        for hi in h:
            col = 3 * col + int(hi)
        rhs = float(linsys.monomial_vector(p) @ a[:, col])
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"max |product - expansion| {worst:.2e}"


def check_completeness(n_max: int) -> tuple[bool, str]:
    ok = all(linsys.verify_completeness(n) for n in range(1, n_max + 1))
    broken = linsys.kron_power_A(2).copy()
    broken[4, 4] = 0.0
    negative = not linsys.verify_completeness(2, matrix=broken)
    return ok and negative, f"n=1..{n_max} complete, rank-deficient control rejected"


def check_nonexistence(n_max: int) -> tuple[bool, str]:
    residual = linsys.check_no_unbiased_estimator_rhoH(2)
    control = linsys.check_no_unbiased_estimator_rhoH(
        2,
        target=lambda p: param_functionals(
            ModelParams.make(p, [0.0] * len(p))
        ).sigma2,
    )
    rho_e = all(linsys.check_no_unbiased_estimator_rhoE(n) for n in range(1, n_max + 1))
    ok = residual > RHO_H_RESIDUAL_THRESHOLD and control <= 1e-12 and rho_e
    return ok, (
        f"rho_H residual {residual:.2e} (> {RHO_H_RESIDUAL_THRESHOLD}), "
        f"sigma2 control {control:.2e}, rho_E argument {'ok' if rho_e else 'BAD'}"
    )


def check_sigma2_umvue(n_max: int, trials: int = 10) -> tuple[bool, str]:
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        params = ModelParams.make(rng.uniform(0.05, 0.95, size=n), [0.0] * n)
        moments = oracle.exact_moments(balance.STAT_SIGMA2_UMVUE, params)
        worst = max(worst, abs(moments.mean - param_functionals(params).sigma2))
    return worst <= 1e-12, f"max |E - sigma2| {worst:.2e}"


def check_rao_blackwell(n_max: int, trials: int = 5) -> tuple[bool, str]:
    rng = np.random.default_rng(31)
    worst_mean = 0.0
    strict = True
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        params = ModelParams.make(
            rng.uniform(0.1, 0.9, size=n), rng.uniform(0.0, 0.9, size=n)
        )
        raw = oracle.exact_moments(balance.STAT_STR, params)
        bal = oracle.exact_moments(balance.STAT_STR_BAR, params)
        worst_mean = max(worst_mean, abs(raw.mean - bal.mean))
        if not bal.variance < raw.variance:
            strict = False
    ok = worst_mean <= 1e-12 and strict
    return ok, f"max mean gap {worst_mean:.2e}, variance strictly reduced: {strict}"


def run_checks(level: str = "fast") -> list[tuple[str, bool, str]]:
    deep = level == "full"
    checks = [
        ("density identities", lambda: check_density_identities(6 if deep else 4)),
        ("str closed forms agree", lambda: check_str_forms_agree(6 if deep else 4)),
        ("balancing oracles", lambda: check_balancing_oracles(8 if deep else 4)),
        ("str_bar mutant control", check_strbar_negative_control),
        ("Kronecker coefficient identity", lambda: check_kron_identity(4)),
        ("completeness", lambda: check_completeness(6 if deep else 4)),
        ("non-existence certificates", lambda: check_nonexistence(5 if deep else 3)),
        ("sigma2 UMVUE unbiased", lambda: check_sigma2_umvue(5)),
        ("Rao-Blackwell contract", lambda: check_rao_blackwell(5)),
    ]
    results = []
    for name, fn in checks:
        ok, detail = fn()
        results.append((name, ok, detail))
    return results
