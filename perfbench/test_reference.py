"""Tests of the benchmark's reference against plain-Python enumeration.

Run with `python3 -m pytest perfbench/test_reference.py`.  Nothing here
imports corrbern: the oracle below walks the 4^n sample space and the
2^Delta members of each class directly from the bits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import reference


def _str_of_bits(x, y):
    n = len(x)
    if all(b == 0 for b in x + y) or all(b == 1 for b in x + y):
        return reference.CONVENTION
    dx, dy = sum(x) / n, sum(y) / n
    delta = sum(xi != yi for xi, yi in zip(x, y))
    return 1.0 - (delta / n) / (dx * (1 - dy) + (1 - dx) * dy)


def _class_members(x, y):
    stars = [k for k in range(len(x)) if x[k] != y[k]]
    for bits in itertools.product((0, 1), repeat=len(stars)):
        mx, my = list(x), list(y)
        for k, b in zip(stars, bits):
            mx[k], my[k] = b, 1 - b
        yield tuple(mx), tuple(my)


def _class_mean(fn, x, y):
    vals = [fn(mx, my) for mx, my in _class_members(x, y)]
    return math.fsum(vals) / len(vals)


def _str_bar_brute(x, y):
    return _class_mean(_str_of_bits, x, y)


def _str_prime_brute(x, y):
    n = len(x)
    if all(b == 0 for b in x + y) or all(b == 1 for b in x + y):
        return reference.CONVENTION

    def dxdy(mx, my):
        return (sum(mx) / n) * (sum(my) / n)

    dcap = sum(a & b for a, b in zip(x, y)) / n
    dxy = (sum(x) + sum(y)) / (2 * n)
    bal = _class_mean(dxdy, x, y)
    return (dcap - bal) / (dxy - bal)


def _enumerated_moments(p, rho):
    n = len(p)
    q1, q0, qstar = reference.cell_probs(p, rho)
    terms = {"str": [], "str_bar": [], "str_prime": []}
    probs = []
    for bits in itertools.product((0, 1), repeat=2 * n):
        x, y = bits[:n], bits[n:]
        prob = 1.0
        for k in range(n):
            if x[k] != y[k]:
                prob *= qstar[k]
            else:
                prob *= q1[k] if x[k] else q0[k]
        probs.append(prob)
        terms["str"].append(_str_of_bits(x, y))
        terms["str_bar"].append(_str_bar_brute(x, y))
        terms["str_prime"].append(_str_prime_brute(x, y))
    out = {}
    for name, vals in terms.items():
        mean = math.fsum(pr * v for pr, v in zip(probs, vals))
        second = math.fsum(pr * v * v for pr, v in zip(probs, vals))
        out[name] = (mean, second - mean * mean)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_moments_match_enumeration(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    p, rho = rng.random(n), rng.random(n)
    got = reference.exact_moments(p, rho)
    want = _enumerated_moments(p, rho)
    assert got["E_str"] == pytest.approx(want["str"][0], abs=1e-13)
    assert got["Var_str"] == pytest.approx(want["str"][1], abs=1e-13)
    assert want["str_bar"][0] == pytest.approx(want["str"][0], abs=1e-13)
    assert got["Var_strbar"] == pytest.approx(want["str_bar"][1], abs=1e-13)
    assert got["E_strprime"] == pytest.approx(want["str_prime"][0], abs=1e-13)
    assert got["Var_strprime"] == pytest.approx(want["str_prime"][1], abs=1e-13)
    assert got["Var_strbar"] <= got["Var_str"] + 1e-15


def test_count_law_sums_to_one_and_matches_point_mass():
    p, rho = [0.3, 0.8, 0.5], [0.2, 0.0, 0.9]
    law = reference.count_law(p, rho)
    assert law.sum() == pytest.approx(1.0, abs=1e-15)
    q1, q0, _ = reference.cell_probs(p, rho)
    assert law[3, 0] == pytest.approx(np.prod(q1), abs=1e-16)
    assert law[0, 0] == pytest.approx(np.prod(q0), abs=1e-16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_estimates_match_brute_force_on_every_point(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        x, y = bits[:n], bits[n:]
        got = reference.pair_estimates(np.array(x), np.array(y))
        assert got["str"] == pytest.approx(_str_of_bits(x, y), abs=1e-14)
        assert got["str_bar"] == pytest.approx(_str_bar_brute(x, y), abs=1e-14)
        assert got["str_prime"] == pytest.approx(_str_prime_brute(x, y), abs=1e-14)


def _str_bar_fraction(n, a, d):
    """Exact rational class average of str."""
    total = Fraction(0)
    for i in range(d + 1):
        sx, sy = a + i, a + d - i
        den = Fraction(sx * (n - sy) + (n - sx) * sy, n * n)
        total += math.comb(d, i) * (1 - Fraction(d, n) / den)
    return total / 2**d


@pytest.mark.parametrize("n,a,d", [(40, 7, 20), (300, 60, 150), (4950, 1000, 1600)])
def test_str_bar_log_weights_match_exact_rationals(n, a, d):
    want = float(_str_bar_fraction(n, a, d))
    assert reference.str_bar(n, a, d) == pytest.approx(want, abs=1e-12)


def test_str_bar_stays_finite_past_the_double_underflow_of_two_to_minus_delta():
    assert math.ldexp(1.0, -1600) == 0.0
    value = reference.str_bar(4950, 1000, 1600)
    assert value == pytest.approx(reference.str_prime(4950, 1000, 1600), abs=1e-4)
    assert value > 0.1


def _mutant_str_bar(n, a, d):
    """str_bar with the off-by-one weight C(d, i-1) / 2^d."""
    vals = reference.str_members(n, a, d)
    w = [math.comb(d, max(i - 1, 0)) / 2**d for i in range(d + 1)]
    return float(np.dot(w, vals))


def test_off_by_one_binomial_weight_is_rejected_at_printed_precision():
    for n in range(2, 5):
        for bits in itertools.product((0, 1), repeat=2 * n):
            x, y = bits[:n], bits[n:]
            d = sum(xi != yi for xi, yi in zip(x, y))
            a = sum(xi & yi for xi, yi in zip(x, y))
            ref = reference.str_bar(n, a, d)
            assert reference.agrees_printed(format(_str_bar_brute(x, y), ".6g"), ref)
            # With d <= 1 the shifted weights equal the true ones.
            mutant_agrees = reference.agrees_printed(
                format(_mutant_str_bar(n, a, d), ".6g"), ref
            )
            assert mutant_agrees == (d <= 1), (x, y)


def test_printed_precision_check():
    assert reference.agrees_printed("0.123457", 0.1234565)
    assert not reference.agrees_printed("0.123457", 0.1234560)
    assert reference.agrees_printed("1e-05", 1.0000049e-5)
    assert not reference.agrees_printed("0", 0.385)
    assert reference.agrees_full(0.5, 0.5 + 1e-13)
    assert not reference.agrees_full(0.5, 0.5 + 1e-9)
