import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbern.cli import main
from corrbern.model import (
    DomainError,
    GraphPair,
    ModelParams,
    cell_probs,
    child_rng,
    point_probability,
    sample_pair,
)


def all_points(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield GraphPair(bits[:n], bits[n:])


class TestCellProbs:
    def test_fair_independent_coin(self):
        c = cell_probs(0.5, 0.0)
        assert c.q1 == pytest.approx(0.25, abs=1e-15)
        assert c.q0 == pytest.approx(0.25, abs=1e-15)
        assert c.qstar == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_perfect_correlation(self, p):
        c = cell_probs(p, 1.0)
        assert c.q1 == pytest.approx(p, abs=1e-15)
        assert c.q0 == pytest.approx(1 - p, abs=1e-15)
        assert c.qstar == 0.0

    def test_reference_edge(self):
        # Direct evaluation of the three formulas at (0.6892, 0.8429).
        c = cell_probs(0.6892, 0.8429)
        assert c.q1 == pytest.approx(0.655548652144, abs=1e-12)
        assert c.q0 == pytest.approx(0.277148652144, abs=1e-12)
        assert c.qstar == pytest.approx(0.033651347856, abs=1e-12)
        assert c.q1 + c.q0 + 2 * c.qstar == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_sums_to_one_and_nonnegative(self, p, rho):
        c = cell_probs(p, rho)
        assert min(c.q1, c.q0, c.qstar) >= 0.0
        assert c.q1 + c.q0 + 2 * c.qstar == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,rho", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 2)])
    def test_domain_errors(self, p, rho):
        with pytest.raises(DomainError):
            cell_probs(p, rho)


class TestModelParams:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ModelParams.make([0.5], [0.5, 0.5])

    def test_empty(self):
        with pytest.raises(DomainError):
            ModelParams.make([], [])

    def test_json_round_trip(self):
        params = ModelParams.make([0.2, 0.9], [0.1, 1.0])
        assert ModelParams.from_json(params.to_json()) == params

    def test_json_validation(self):
        with pytest.raises(DomainError):
            ModelParams.from_json('{"p": [0.5]}')
        with pytest.raises(DomainError):
            ModelParams.from_json('{"p": [2.0], "rho": [0.0]}')

    @pytest.mark.parametrize(
        "values",
        [
            [0, 0.5, 1],
            (0, 0.5, 1),
            np.array([0.0, 0.5, 1.0]),
            np.array([0, 0, 1]),
            [np.float32(0.5), np.float64(0.25), np.int64(1)],
        ],
        ids=["list", "tuple", "float-array", "int-array", "numpy-scalars"],
    )
    def test_numbers_accepted(self, values):
        params = ModelParams.make(values, values)
        assert params.p == tuple(float(v) for v in values)
        assert all(type(v) is float for v in params.p + params.rho)

    @pytest.mark.parametrize(
        "values",
        ["01", b"01", ["0.5"], [b"1"], [True], [0.5, False], np.array([True])],
        ids=["str", "bytes", "str-entry", "bytes-entry", "bool", "bool-after-float", "bool-array"],
    )
    def test_strings_and_bools_rejected(self, values):
        # float() would read each of these as numbers.
        with pytest.raises(DomainError, match="p must be a list of numbers"):
            ModelParams.make(values, [0.5] * len(values))


class TestPointProbability:
    def test_single_fair_independent(self):
        params = ModelParams.make([0.5], [0.0])
        for pt in all_points(1):
            assert point_probability(params, pt) == pytest.approx(0.25, abs=1e-15)

    def test_perfect_correlation_pairs(self):
        params = ModelParams.make([0.5, 0.5], [1.0, 1.0])
        agree = GraphPair((1, 0), (1, 0))
        disagree = GraphPair((1, 0), (0, 1))
        assert point_probability(params, agree) == pytest.approx(0.25, abs=1e-15)
        assert point_probability(params, disagree) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_normalization(self, n):
        rng = np.random.default_rng(n)
        params = ModelParams.make(rng.random(n), rng.random(n))
        total = math.fsum(point_probability(params, pt) for pt in all_points(n))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4])
    def test_marginals(self, n):
        rng = np.random.default_rng(10 + n)
        params = ModelParams.make(rng.random(n), rng.random(n))
        for i in range(n):
            marginal = math.fsum(
                point_probability(params, pt)
                for pt in all_points(n)
                if pt.x[i] == 1
            )
            assert marginal == pytest.approx(params.p[i], abs=1e-12)

    def test_equiprobable_within_class(self):
        rng = np.random.default_rng(42)
        params = ModelParams.make(rng.random(4), rng.random(4))
        from corrbern.stats import disagreement_vector

        by_class = {}
        for pt in all_points(4):
            by_class.setdefault(
                disagreement_vector(pt).lex_index(), []
            ).append(point_probability(params, pt))
        for probs in by_class.values():
            assert max(probs) - min(probs) <= 1e-15


class TestSampler:
    def test_degenerate_p_one(self):
        params = ModelParams.make([1.0, 1.0, 1.0], [0.3, 0.0, 0.9])
        for seed in range(20):
            pair = sample_pair(params, child_rng(0, seed))
            assert pair.x == (1, 1, 1) and pair.y == (1, 1, 1)

    def test_rho_one_forces_equality(self):
        params = ModelParams.make([0.3, 0.6, 0.5], [1.0, 1.0, 1.0])
        for seed in range(50):
            pair = sample_pair(params, child_rng(1, seed))
            assert pair.x == pair.y

    def test_cell_frequencies_match(self):
        # 10^5 draws at N=1, p=0.5, rho=0: each cell within 3 standard errors.
        params = ModelParams.make([0.5], [0.0])
        rng = np.random.default_rng(2024)
        counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        draws = 100_000
        for _ in range(draws):
            pair = sample_pair(params, rng)
            counts[(pair.x[0], pair.y[0])] += 1
        se = math.sqrt(0.25 * 0.75 / draws)
        for count in counts.values():
            assert abs(count / draws - 0.25) <= 3 * se

    def test_sample_output_pinned(self, tmp_path, capsys):
        # `corrbern sample` at N = 4950, with p and rho both hitting 0 and 1:
        # the SHA-256 of its output, as first released.
        n = 4950
        path = tmp_path / "params.json"
        path.write_text(
            json.dumps(
                {
                    "p": [(i % 97) / 96 for i in range(n)],
                    "rho": [(i % 89) / 88 for i in range(n)],
                }
            )
        )
        argv = ["sample", "--params-file", str(path), "--n", "4", "--seed", "7"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "7000c2c99c1a7deb6bb8f8c1156bd56b4b0397920d1060a7dd0fd674429e899f"
        )

    def test_child_rng_is_order_independent(self):
        params = ModelParams.make([0.5] * 8, [0.2] * 8)
        a = [sample_pair(params, child_rng(7, r)) for r in range(5)]
        b = [sample_pair(params, child_rng(7, r)) for r in reversed(range(5))]
        assert a == list(reversed(b))


class TestGraphPair:
    def test_rejects_nonbinary(self):
        with pytest.raises(DomainError):
            GraphPair((0, 2), (0, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            GraphPair((0, 1), (0,))

    @pytest.mark.parametrize(
        "bit", [0, 1, True, 1.0, np.int64(1)], ids=["0", "1", "True", "1.0", "int64"]
    )
    def test_accepted_bits(self, bit):
        assert GraphPair((bit, 0), (1, bit)).n == 2

    @pytest.mark.parametrize(
        "bit", [2, -1, "1", None, [1]], ids=["2", "-1", "str", "None", "list"]
    )
    def test_rejected_bits_raise_domain_error(self, bit):
        with pytest.raises(DomainError, match="non-binary"):
            GraphPair((0, 1), (1, bit))

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float64])
    def test_from_arrays_converts_each_entry_with_int(self, dtype):
        rng = np.random.default_rng(3)
        x = (rng.random(40) < 0.5).astype(dtype)
        y = (rng.random(40) < 0.5).astype(dtype)
        pt = GraphPair.from_arrays(x, y)
        assert pt == GraphPair(tuple(int(b) for b in x), tuple(int(b) for b in y))
        assert {type(b) for b in pt.x + pt.y} == {int}
