"""Independent reference for the benchmark's output checks.

Nothing here imports corrbern.  Every statistic of the str family
depends on a sample point only through its counts: a = n11 (both one),
b = n00 (both zero), d = Delta (disagreements), and, for str itself,
i = n10, the number of disagreements resolved as (x, y) = (1, 0).
Under the model the law of (a, d) is the product of the per-component
triples (q1, q0, 2*qstar), and given d the split i is Binomial(d, 1/2),
because both ordered disagreements have probability qstar.

So exact moments come from an O(N^3) dynamic programme over components
instead of the 4^N sample space, and the balanced statistics are
averages over i with binomial weights taken in log space, which stay
finite for any Delta.
"""

from __future__ import annotations

import math

import numpy as np

# Value of every str-family statistic at the two degenerate points
# (both vectors all zeros, or both all ones).
CONVENTION = 0.0


def cell_probs(p, rho):
    """Per-component (q1, q0, qstar) arrays."""
    p = np.asarray(p, dtype=float)
    rho = np.asarray(rho, dtype=float)
    pq = p * (1.0 - p)
    return p * p + rho * pq, (1.0 - p) ** 2 + rho * pq, (1.0 - rho) * pq


def count_law(p, rho) -> np.ndarray:
    """P[a, d]: probability of n11 = a and Delta = d (n00 = N - a - d)."""
    q1, q0, qstar = cell_probs(p, rho)
    n = len(q1)
    law = np.zeros((n + 1, n + 1))
    law[0, 0] = 1.0
    for k in range(n):
        nxt = q0[k] * law
        nxt[1:, :] += q1[k] * law[:-1, :]
        nxt[:, 1:] += 2.0 * qstar[k] * law[:, :-1]
        law = nxt
    return law


def half_binomial_weights(d: int) -> np.ndarray:
    """C(d, i) / 2^d for i = 0..d, from log-space terms, normalised to sum 1."""
    i = np.arange(d + 1)
    lg = np.array([math.lgamma(k + 1.0) for k in range(d + 1)])
    logw = lg[d] - lg[i] - lg[d - i] - d * math.log(2.0)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def str_members(n: int, a: int, d: int) -> np.ndarray:
    """str at the class members with i = 0..d stars resolved as (1, 0)."""
    if d == 0 and a in (0, n):
        return np.array([CONVENTION])
    i = np.arange(d + 1)
    dx = (a + i) / n
    dy = (a + d - i) / n
    return 1.0 - (d / n) / (dx * (1.0 - dy) + (1.0 - dx) * dy)


def str_bar(n: int, a: int, d: int) -> float:
    """Class average of str."""
    return float(half_binomial_weights(d) @ str_members(n, a, d))


def str_prime(n: int, a: int, d: int) -> float:
    """Quotient of the class averages of str's numerator and denominator.

    str = (dCap - dX dY) / (dXY - dX dY); both parts are averaged over
    the class separately, with the same weights as str_bar.
    """
    if d == 0 and a in (0, n):
        return CONVENTION
    w = half_binomial_weights(d)
    i = np.arange(d + 1)
    dxdy = float(w @ (((a + i) / n) * ((a + d - i) / n)))
    return (a / n - dxdy) / ((2 * a + d) / (2 * n) - dxdy)


def pair_estimates(x: np.ndarray, y: np.ndarray) -> dict:
    """Every column `corrbern estimate` prints for one pair."""
    n = len(x)
    a = int(np.count_nonzero(x & y))
    d = int(np.count_nonzero(x != y))
    sx = int(np.count_nonzero(x))
    sy = int(np.count_nonzero(y))
    if d == 0 and a in (0, n):
        s = CONVENTION
    else:
        dx, dy = sx / n, sy / n
        s = 1.0 - (d / n) / (dx * (1.0 - dy) + (1.0 - dx) * dy)
    return {
        "delta": d,
        "d_x": sx / n,
        "d_y": sy / n,
        "d_xy": (sx + sy) / (2 * n),
        "d_cap": a / n,
        "str": s,
        "str_bar": str_bar(n, a, d),
        "str_prime": str_prime(n, a, d),
    }


class CountTables:
    """str, str_bar and str_prime on every count triple of one N.

    str_sq_mean[a, d] is the class average of str^2, so that
    E[str^2] = sum over (a, d) of P[a, d] * str_sq_mean[a, d].
    """

    def __init__(self, n: int):
        self.n = n
        shape = (n + 1, n + 1)
        self.str_mean = np.zeros(shape)
        self.str_sq_mean = np.zeros(shape)
        self.str_prime = np.zeros(shape)
        for a in range(n + 1):
            for d in range(n + 1 - a):
                w = half_binomial_weights(d)
                vals = str_members(n, a, d)
                self.str_mean[a, d] = w @ vals
                self.str_sq_mean[a, d] = w @ (vals * vals)
                self.str_prime[a, d] = str_prime(n, a, d)


def param_functionals(p, rho) -> dict:
    p = np.asarray(p, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = len(p)
    mu = float(p.mean())
    sigma2 = float(((p - mu) ** 2).mean())
    s = float(((1.0 - rho) * p * (1.0 - p)).sum())
    if mu in (0.0, 1.0):
        rho_h = rho_t = 0.0
    else:
        rho_h = sigma2 / (mu * (1.0 - mu))
        rho_t = 1.0 - s / (n * mu * (1.0 - mu))
    return {"mu": mu, "sigma2": sigma2, "rho_H": rho_h, "rho_T": rho_t, "E_delta": 2.0 * s}


def exact_moments(p, rho, tables: CountTables | None = None) -> dict:
    """Exact E, Var and MSE (against rho_T) of str, str_bar and str_prime."""
    n = len(p)
    if tables is None or tables.n != n:
        tables = CountTables(n)
    law = count_law(p, rho)
    e_str = float((law * tables.str_mean).sum())
    e_str_sq = float((law * tables.str_sq_mean).sum())
    e_bar_sq = float((law * tables.str_mean**2).sum())
    e_prime = float((law * tables.str_prime).sum())
    e_prime_sq = float((law * tables.str_prime**2).sum())
    func = param_functionals(p, rho)
    rho_t = func["rho_T"]
    var_str = e_str_sq - e_str**2
    var_bar = e_bar_sq - e_str**2
    var_prime = e_prime_sq - e_prime**2
    q1, q0, _ = cell_probs(p, rho)
    return {
        **func,
        "E_str": e_str,
        "E_strprime": e_prime,
        "Var_str": var_str,
        "Var_strbar": var_bar,
        "Var_strprime": var_prime,
        "MSE_strbar_vs_rhoT": var_bar + (e_str - rho_t) ** 2,
        "MSE_strprime_vs_rhoT": var_prime + (e_prime - rho_t) ** 2,
        "degenerate_point_probability": float(np.prod(q0) + np.prod(q1)),
        "convention_value": CONVENTION,
    }


# --- comparison at the precision an output was printed with -------------

# Both sides of a full-precision comparison carry float rounding from sums
# over up to 4^10 terms (the program) or (N+1)^2 terms (this module).  At
# n = 6, 8 and 10 the two differ by at most 6.4e-15 on every printed
# moment, so 1e-12 leaves two orders of margin.
FULL_PRECISION_ABS = 1e-12
FULL_PRECISION_REL = 1e-12


def agrees_printed(text: str, ref: float, digits: int = 6) -> bool:
    """True when `text`, a value printed with `digits` significant digits
    (format spec '.{digits}g'), is the rounding of `ref`.

    Allows half a unit in the last printed digit plus a float slack far
    below it, so a true value on a rounding boundary is not flagged.
    """
    value = float(text)
    slack = FULL_PRECISION_ABS + FULL_PRECISION_REL * abs(ref)
    if value == 0.0:
        return abs(ref) <= slack
    exponent = math.floor(math.log10(abs(value)))
    half_unit = 0.5 * 10.0 ** (exponent - digits + 1)
    return abs(value - ref) <= half_unit * (1.0 + 1e-9) + slack


def agrees_full(value: float, ref: float) -> bool:
    """True when a value printed at full precision matches `ref`."""
    return abs(value - ref) <= FULL_PRECISION_ABS + FULL_PRECISION_REL * abs(ref)
