"""Correlated Bernoulli pair model: parameters, cell probabilities, sampling.

The model is a pair of random 0/1 vectors (X, Y) of common length N.
Component i has marginal Bernoulli(p_i) on both sides and Pearson
correlation rho_i between X_i and Y_i; components are independent of
each other.  Each component has three distinguishable outcomes --
both ones, both zeros, or a disagreement -- with probabilities q1, q0
and (per ordered disagreement) qstar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """A parameter or sample point is outside its valid domain."""


class CapacityError(RuntimeError):
    """An exact computation would exceed the supported problem size."""


@dataclass(frozen=True)
class EdgeCellProbs:
    """Per-component cell probabilities (q1 + q0 + 2*qstar = 1)."""

    q1: float
    q0: float
    qstar: float


@dataclass(frozen=True)
class GraphPair:
    """A sample point: two aligned 0/1 vectors of equal length."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise DomainError(f"length mismatch: {len(self.x)} vs {len(self.y)}")
        try:
            if {*self.x, *self.y} <= _BITS:
                return
        except TypeError:  # an unhashable entry such as [1]
            pass
        # The set test is the fast path, not the rule: an entry that equals
        # 0 or 1 under another hash, or no hash, is judged here as before.
        for bit in (*self.x, *self.y):
            if bit not in (0, 1):
                raise DomainError(f"non-binary component {bit!r}")

    @property
    def n(self) -> int:
        return len(self.x)

    @staticmethod
    def from_arrays(x, y) -> "GraphPair":
        return GraphPair(_int_tuple(x), _int_tuple(y))


_BITS = frozenset((0, 1))


def _int_tuple(values) -> tuple[int, ...]:
    """int() of each entry; an ndarray is first turned into Python scalars in C."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return tuple(map(int, values))


@dataclass(frozen=True)
class ModelParams:
    """Parameter tuple (p_1..p_N, rho_1..rho_N), each entry in [0, 1]."""

    p: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != len(self.rho):
            raise DomainError(
                f"p has {len(self.p)} entries but rho has {len(self.rho)}"
            )
        if len(self.p) < 1:
            raise DomainError("need at least one component")
        for name, vec in (("p", self.p), ("rho", self.rho)):
            for v in vec:
                if not (0.0 <= v <= 1.0):
                    raise DomainError(f"{name} entry {v!r} outside [0, 1]")

    @property
    def n_components(self) -> int:
        return len(self.p)

    @staticmethod
    def make(p, rho) -> "ModelParams":
        return ModelParams(_floats("p", p), _floats("rho", rho))

    @cached_property
    def _sampling_arrays(self) -> tuple[np.ndarray, ...]:
        """p and rho as arrays, the mask of p in {0, 1}, and (1 - rho)*p, for `sample_pair`."""
        p = np.asarray(self.p)
        rho = np.asarray(self.rho)
        return p, rho, (p == 0.0) | (p == 1.0), (1.0 - rho) * p

    def cells(self) -> list[EdgeCellProbs]:
        return [cell_probs(pi, ri) for pi, ri in zip(self.p, self.rho)]

    def to_json(self) -> str:
        return json.dumps({"p": list(self.p), "rho": list(self.rho)})

    @staticmethod
    def from_json(text: str) -> "ModelParams":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "p" not in obj or "rho" not in obj:
            raise DomainError('expected a JSON object {"p": [...], "rho": [...]}')
        return ModelParams.make(obj["p"], obj["rho"])


# float() also reads these, as digits of a string or as 0/1; none is a number here.
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)


def _floats(name: str, values) -> tuple[float, ...]:
    """`values` as floats; a string, or an entry that is a string or a bool, is refused."""
    if not isinstance(values, _NOT_NUMBERS):
        try:
            values = tuple(values)
            if not any(isinstance(v, _NOT_NUMBERS) for v in values):
                return tuple(map(float, values))
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a list of numbers")


def cell_probs(p: float, rho: float) -> EdgeCellProbs:
    """Cell probabilities of one component.

    q1 = p^2 + rho*p*(1-p), q0 = (1-p)^2 + rho*p*(1-p),
    qstar = (1-rho)*p*(1-p); qstar is the probability of each of the
    two ordered disagreements, so q1 + q0 + 2*qstar = 1.
    """
    if not (0.0 <= p <= 1.0) or not (0.0 <= rho <= 1.0):
        raise DomainError(f"p={p!r}, rho={rho!r} must lie in [0, 1]")
    pq = p * (1.0 - p)
    return EdgeCellProbs(
        q1=p * p + rho * pq,
        q0=(1.0 - p) * (1.0 - p) + rho * pq,
        qstar=(1.0 - rho) * pq,
    )


def sample_pair(params: ModelParams, rng: np.random.Generator) -> GraphPair:
    """Draw one (x, y) pair.

    X_i ~ Bernoulli(p_i); given x_i, Y_i ~ Bernoulli(rho_i*x_i + (1-rho_i)*p_i).
    When p_i is 0 or 1 the component is deterministic and rho_i is ignored.
    """
    p, rho, fixed, free = params._sampling_arrays
    x = (rng.random(params.n_components) < p).astype(np.int64)
    py = np.where(fixed, p, rho * x + free)
    y = (rng.random(params.n_components) < py).astype(np.int64)
    return GraphPair.from_arrays(x, y)


def point_probability(params: ModelParams, point: GraphPair) -> float:
    """Probability of a single sample point under the model."""
    if point.n != params.n_components:
        raise DomainError(
            f"point has {point.n} components, params has {params.n_components}"
        )
    prob = 1.0
    for xi, yi, cell in zip(point.x, point.y, params.cells()):
        if xi == yi:
            prob *= cell.q1 if xi == 1 else cell.q0
        else:
            prob *= cell.qstar
    return prob


def child_rng(base_seed: int, replicate: int) -> np.random.Generator:
    """Deterministic per-replicate stream, independent of run order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(replicate,))
    )
