import json

import numpy as np
import pytest

from corrbern import balance, cli, experiment, stats
from corrbern.cli import main, parse_sample_file
from corrbern.experiment import (
    MAX_COMPONENTS,
    ExperimentConfig,
    exact_experiment_row,
    parse_csv_lines,
    run_experiment,
    rows_to_csv_lines,
    summarize,
)
from corrbern.model import DomainError, ModelParams, child_rng, sample_pair

from reference_tables import UNIFORM_BOTH_EXPECTED, UNIFORM_BOTH_PARAMS

PARAMS_JSON = json.dumps(
    {"p": UNIFORM_BOTH_PARAMS[0][0], "rho": UNIFORM_BOTH_PARAMS[0][1]}
)


def assert_fails_cleanly(capsys, argv, message):
    """main exits 2 and prints one `corrbern: error:` line containing `message`."""
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("corrbern: error: ")
    assert message in lines[0]


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(PARAMS_JSON)
    return str(path)


class TestSample:
    def test_deterministic(self, params_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "sample",
                        "--params-file",
                        params_file,
                        "--n",
                        "50",
                        "--seed",
                        "3",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, params_file, tmp_path):
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}.csv"
            main(
                [
                    "sample",
                    "--params-file",
                    params_file,
                    "--n",
                    "50",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_shape(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["sample", "--params-file", params_file, "--n", "7", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id,x_bits,y_bits"
        assert len(lines) == 8
        parsed = parse_sample_file(out.read_text())
        assert [i for i, _ in parsed] == list(range(7))
        assert all(pt.n == 6 for _, pt in parsed)

    def test_bits_match_join_of_ints(self):
        params = ModelParams.from_json(PARAMS_JSON)
        vectors = [(), (0,), (1,), (1, 0, 0, 1, 1)]
        vectors += [sample_pair(params, child_rng(3, i)).y for i in range(4)]
        rng = np.random.default_rng(4950)
        vectors.append(tuple(int(b) for b in rng.random(4950) < 0.3))
        for vec in vectors:
            assert cli._bits(vec) == "".join(str(int(b)) for b in vec)


class TestParseSampleFile:
    def test_malformed_row_names_line(self):
        text = "sample_id,x_bits,y_bits\n0,101,011\n1,10x,011\n"
        with pytest.raises(DomainError, match="line 3"):
            parse_sample_file(text)

    def test_missing_header(self):
        with pytest.raises(DomainError, match="header"):
            parse_sample_file("0,101,011\n")

    def test_length_mismatch_rejected(self):
        text = "sample_id,x_bits,y_bits\n0,101,01\n"
        with pytest.raises(DomainError, match="line 2"):
            parse_sample_file(text)

    def test_empty_vectors_rejected(self):
        text = "sample_id,x_bits,y_bits\n0,,\n"
        with pytest.raises(DomainError, match="line 2"):
            parse_sample_file(text)

    @pytest.mark.parametrize(
        "x, y",
        [("0b1", "011"), ("1_0", "101"), (" 1", "01"), ("+1", "01"), ("\uff11", "1")],
        ids=["prefix", "underscore", "space", "sign", "full-width"],
    )
    def test_forms_int_accepts_rejected(self, x, y):
        # int(s, 2) accepts each of these; the row check must not.
        text = f"sample_id,x_bits,y_bits\n0,{x},{y}\n"
        with pytest.raises(DomainError, match="line 2"):
            parse_sample_file(text)


class TestEstimate:
    def test_hand_values(self, tmp_path):
        sample = tmp_path / "s.csv"
        sample.write_text("sample_id,x_bits,y_bits\n0,10,11\n1,10,10\n")
        out = tmp_path / "e.csv"
        assert main(["estimate", str(sample), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "sample_id,delta,d_x,d_y,d_xy,d_cap,str,str_bar,str_prime"
        )
        row0 = lines[1].split(",")
        assert row0[:2] == ["0", "1"]
        assert [float(v) for v in row0[2:]] == pytest.approx(
            [0.5, 1.0, 0.75, 0.5, 0.0, 0.0, 0.0], abs=1e-9
        )
        row1 = lines[2].split(",")
        assert [float(v) for v in row1[6:]] == pytest.approx(
            [1.0, 1.0, 1.0], abs=1e-9
        )

    def test_pipeline_from_sample(self, params_file, tmp_path):
        sample = tmp_path / "s.csv"
        main(["sample", "--params-file", params_file, "--n", "5", "--out", str(sample)])
        out = tmp_path / "e.csv"
        assert main(["estimate", str(sample), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_counts_once_per_pair(self, params_file, tmp_path, monkeypatch):
        sample = tmp_path / "s.csv"
        main(["sample", "--params-file", params_file, "--n", "5", "--out", str(sample)])
        original = stats.counts_of_bits
        calls = []
        point_calls = []

        def counted(x, y):
            calls.append((x, y))
            return original(x, y)

        monkeypatch.setattr(cli, "counts_of_bits", counted)
        for module in (stats, balance):
            monkeypatch.setattr(module, "counts", point_calls.append)
        out = tmp_path / "e.csv"
        assert main(["estimate", str(sample), "--out", str(out)]) == 0
        assert len(calls) == 5
        assert point_calls == []


class TestExact:
    def test_reference_row(self, params_file, tmp_path):
        out = tmp_path / "exact.json"
        assert main(["exact", "--params-file", params_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        expected = UNIFORM_BOTH_EXPECTED[0]
        assert report["E_str"] == pytest.approx(expected[0], abs=5e-5)
        assert report["E_strprime"] == pytest.approx(expected[1], abs=5e-5)
        assert report["rho_T"] == pytest.approx(expected[2], abs=5e-5)
        assert report["Var_str"] == pytest.approx(expected[3], abs=5e-5)
        assert report["Var_strbar"] == pytest.approx(expected[4], abs=5e-5)
        assert report["Var_strprime"] == pytest.approx(expected[5], abs=5e-5)
        assert report["convention_value"] == 0.0
        assert 0.0 <= report["degenerate_point_probability"] <= 1.0


class TestExperiment:
    def test_deterministic_csv(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "experiment",
                        "--mode",
                        "rho-zero",
                        "--replicates",
                        "10",
                        "--seed",
                        "11",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_summary_written(self, tmp_path):
        out = tmp_path / "exp.csv"
        main(
            [
                "experiment",
                "--mode",
                "p-half",
                "--replicates",
                "8",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        summary = json.loads((tmp_path / "exp.csv.summary.json").read_text())
        assert summary["replicates"] == 8
        assert summary["mode"] == "p-half"
        assert 0 <= summary["var_str_gt_var_strbar_gt_var_strprime"] <= 8

    def test_csv_round_trip(self, tmp_path):
        config = ExperimentConfig(mode="uniform-both", replicates=5, base_seed=4)
        rows = run_experiment(config)
        parsed = parse_csv_lines(rows_to_csv_lines(rows))
        for row, back in zip(rows, parsed):
            assert back["replicate"] == row.replicate_index
            assert back["p"] == pytest.approx(row.params.p, abs=0)
            assert back["rho"] == pytest.approx(row.params.rho, abs=0)
            assert back["e_str"] == pytest.approx(row.e_str, rel=1e-5)
            assert back["var_strprime"] == pytest.approx(
                row.var_strprime, rel=1e-5
            )

    def test_params_file_injection(self, tmp_path):
        rows_json = tmp_path / "rows.json"
        rows_json.write_text(
            json.dumps(
                [
                    {"p": p, "rho": rho}
                    for p, rho in UNIFORM_BOTH_PARAMS[:2]
                ]
            )
        )
        out = tmp_path / "inj.csv"
        assert (
            main(
                [
                    "experiment",
                    "--params-file",
                    str(rows_json),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        parsed = parse_csv_lines(out.read_text().splitlines())
        assert len(parsed) == 2
        for row, expected in zip(parsed, UNIFORM_BOTH_EXPECTED[:2]):
            assert row["e_str"] == pytest.approx(expected[0], abs=5e-5)
            assert row["var_strprime"] == pytest.approx(expected[5], abs=5e-5)


    def test_row_without_rho_rejected(self, tmp_path, capsys):
        rows_json = tmp_path / "rows.json"
        rows_json.write_text(json.dumps([{"p": [0.5] * 6}]))
        assert_fails_cleanly(
            capsys, ["experiment", "--params-file", str(rows_json)], "row 0 lacks 'rho'"
        )


class TestCapacity:
    """N = 201 is refused before any count-state table or law is built."""

    N = MAX_COMPONENTS + 1

    @pytest.fixture(autouse=True)
    def no_engine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("engine reached past the capacity bound")

        monkeypatch.setattr(experiment, "str_class_moments", refuse)
        monkeypatch.setattr(experiment, "str_prime_counts", refuse)
        monkeypatch.setattr(experiment, "point_probability_vector", refuse)

    def params(self) -> dict:
        return {"p": [0.5] * self.N, "rho": [0.5] * self.N}

    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(self.params()))
        assert_fails_cleanly(capsys, ["exact", "--params-file", str(path)], "<= 200")

    def test_experiment_params_file(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([self.params()]))
        assert_fails_cleanly(
            capsys, ["experiment", "--params-file", str(path)], "<= 200"
        )

    def test_experiment_n(self, capsys):
        assert_fails_cleanly(
            capsys, ["experiment", "--n", str(self.N), "--replicates", "1"], "<= 200"
        )


class TestDegenerate:
    def test_report(self, tmp_path):
        out = tmp_path / "deg.json"
        assert (
            main(
                [
                    "degenerate",
                    "--mu",
                    "0.25",
                    "--p-values",
                    "0.15,0.35",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["mu"] == 0.25
        assert report["p_values"] == [0.15, 0.35]
        assert len(report["solutions"]) == 2
        assert all(len(s) == 16 for s in report["solutions"])
        assert max(report["residuals"]) <= 1e-9
        assert report["max_abs_diff"] > 1e-3
        assert all(v >= 0.0 for v in report["variances"])
        # E(Delta) = 2(p(1-p) + p2(1-p2)) with p2 = 2mu - p: check the
        # reported coefficient vector reproduces it at both p values.
        g = np.array(report["target_coefficients"])
        for p in report["p_values"]:
            p2 = 2 * 0.25 - p
            expected = 2 * (p * (1 - p) + p2 * (1 - p2))
            assert np.polynomial.polynomial.polyval(p, g) == pytest.approx(
                expected, abs=1e-12
            )

    def test_bad_p_rejected(self, capsys):
        assert_fails_cleanly(
            capsys,
            ["degenerate", "--mu", "0.25", "--p-values", "0.6"],
            "p=0.6 outside the open interval",
        )


class TestCleanFailure:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"p": [0.5, 0.5], "rho": [0.5]}', "p has 2 entries but rho has 1"),
            (None, "No such file or directory"),
            ('{"p": [0.5,', "Expecting value"),
            ('{"p": ["x"], "rho": [0.5]}', "p must be a list of numbers"),
        ],
        ids=["mismatched-lengths", "missing-file", "malformed-json", "non-numeric-entry"],
    )
    def test_params_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "params.json"
        if text is not None:
            path.write_text(text)
        assert_fails_cleanly(capsys, ["exact", "--params-file", str(path)], message)

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "row 0 is not an object"), ("5", "neither a row object nor a list")],
        ids=["rows-not-objects", "not-a-list"],
    )
    def test_rows_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "rows.json"
        path.write_text(text)
        assert_fails_cleanly(capsys, ["experiment", "--params-file", str(path)], message)

    def test_non_integer_sample_id(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("sample_id,x_bits,y_bits\na,10,10\n")
        assert_fails_cleanly(capsys, ["estimate", str(path)], "sample id at line 2")


class TestVerify:
    def test_fast_level_passes(self, capsys):
        assert main(["verify", "--level", "fast"]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        assert "checks passed" in printed
