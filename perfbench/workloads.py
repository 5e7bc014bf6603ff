"""The benchmark's workloads: inputs made from the seed, and output checks.

One operation is one `corrbern.cli.main(argv)` call.  A workload runs in
rounds of `round_size` operations; a run attempts whole rounds only, so
the share of failed operations does not depend on how long it ran.

`check(k, rc, stdout)` returns True when operation k's output matches
the independent reference, False when it shows the one known program
fault the workload keeps (see EstimateGraphs), and raises WrongOutput
on anything else.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os

import numpy as np

import reference


class WrongOutput(AssertionError):
    """An output disagrees with the reference in a way no known fault explains."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _half_unit(text: str, digits: int = 6) -> float:
    value = float(text)
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mse_identity_holds(mse: str, var: str, mean: str, target: str) -> bool:
    """MSE = Var + bias^2 within the rounding of the four printed values."""
    bias = float(mean) - float(target)
    bias_err = _half_unit(mean) + _half_unit(target)
    lhs = float(mse)
    rhs = float(var) + bias * bias
    tol = _half_unit(mse) + _half_unit(var) + 2 * abs(bias) * bias_err + bias_err**2
    return abs(lhs - rhs) <= tol * (1 + 1e-9) + 1e-13


class Workload:
    name = ""
    round_size = 1
    # Whether the CLI calls the estimators once per input pair; the traced
    # run wraps them only then (see layers.install).
    per_pair_estimates = False
    # Whether the CLI writes its result to stdout rather than a file.
    capture = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @property
    def warm_k(self) -> int:
        """Index of the warm-up operation: first of its round, before call 0."""
        return -self.round_size

    def setup(self, run_op) -> None:
        """Make the inputs and warm up; run_op(argv, capture) calls the CLI."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Check the outputs of the warm-up operations."""
        raise NotImplementedError

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, rc: int, stdout: str) -> bool:
        raise NotImplementedError


# --- tables-n8 ------------------------------------------------------------

# Columns of `corrbern experiment` output and the reference key each one is
# checked against.
EXPERIMENT_COLUMNS = {
    "e_str": "E_str",
    "e_strprime": "E_strprime",
    "rho_t": "rho_T",
    "var_str": "Var_str",
    "var_strbar": "Var_strbar",
    "var_strprime": "Var_strprime",
    "mse_strbar": "MSE_strbar_vs_rhoT",
    "mse_strprime": "MSE_strprime_vs_rhoT",
}

SUMMARY_PREDICATES = {
    "var_str_gt_var_strbar_gt_var_strprime": lambda r: (
        r["Var_str"] - r["Var_strbar"],
        r["Var_strbar"] - r["Var_strprime"],
    ),
    "e_str_lt_e_strprime_lt_rho_t": lambda r: (
        r["E_strprime"] - r["E_str"],
        r["rho_T"] - r["E_strprime"],
    ),
    "strprime_less_biased_than_str": lambda r: (
        abs(r["E_str"] - r["rho_T"]) - abs(r["E_strprime"] - r["rho_T"]),
    ),
}


def _check_experiment_rows(rows: list[dict], tables: reference.CountTables) -> list[dict]:
    """Check every printed moment of every row; return the reference rows."""
    refs = []
    for row in rows:
        p = [float(v) for v in row["p"].split(";")]
        rho = [float(v) for v in row["rho"].split(";")]
        _require(len(p) == len(rho) == tables.n, f"row has {len(p)} components")
        _require(all(0.0 <= v <= 1.0 for v in p + rho), "parameter outside [0, 1]")
        ref = reference.exact_moments(p, rho, tables)
        for column, key in EXPERIMENT_COLUMNS.items():
            _require(
                reference.agrees_printed(row[column], ref[key]),
                f"{column} = {row[column]}, reference {ref[key]!r}",
            )
        _require(
            float(row["var_strbar"])
            <= float(row["var_str"]) + _half_unit(row["var_str"]) + _half_unit(row["var_strbar"]),
            "Var(str_bar) > Var(str)",
        )
        _require(
            _mse_identity_holds(row["mse_strbar"], row["var_strbar"], row["e_str"], row["rho_t"]),
            "MSE(str_bar) != Var + bias^2",
        )
        _require(
            _mse_identity_holds(
                row["mse_strprime"], row["var_strprime"], row["e_strprime"], row["rho_t"]
            ),
            "MSE(str_prime) != Var + bias^2",
        )
        refs.append(ref)
    return refs


def _check_summary(path: str, refs: list[dict]) -> None:
    with open(path) as fh:
        summary = json.load(fh)
    _require(summary["replicates"] == len(refs), "summary replicate count")
    for key, margins in SUMMARY_PREDICATES.items():
        want = sum(all(m > 0 for m in margins(r)) for r in refs)
        # A replicate whose ordering is decided by less than float noise
        # may land on either side.
        unsure = sum(any(abs(m) < 1e-10 for m in margins(r)) for r in refs)
        _require(abs(summary[key] - want) <= unsure, f"summary {key} = {summary[key]}, want {want}")
    margins = [r["MSE_strbar_vs_rhoT"] - r["MSE_strprime_vs_rhoT"] for r in refs]
    want = sum(m >= 0 for m in margins)
    unsure = sum(abs(m) < 1e-10 for m in margins)
    _require(
        abs(summary["mse_strprime_le_mse_strbar"] - want) <= unsure,
        "summary mse_strprime_le_mse_strbar",
    )


def _load_reference_tables(root: str):
    """tests/reference_tables.py of the checkout, loaded by path (read only)."""
    path = os.path.join(root, "tests", "reference_tables.py")
    spec = importlib.util.spec_from_file_location("_published_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TablesN8(Workload):
    """`experiment --n 8`, modes in rotation, a fresh seed per call."""

    name = "tables-n8"
    modes = ("uniform-both", "rho-zero", "p-half")
    round_size = len(modes)
    n = 8
    replicates = 16
    # The published reference rows are printed at 4 decimals.
    anchor_tol = 5e-5

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir)
        self.tables = reference.CountTables(self.n)
        self.tables6 = reference.CountTables(6)
        published = _load_reference_tables(root)
        self.anchor_rows = []
        self.anchor_expected = []
        for (p, rho), want in zip(published.UNIFORM_BOTH_RECOVERED, published.UNIFORM_BOTH_EXPECTED):
            self.anchor_rows.append({"p": p, "rho": rho})
            self.anchor_expected.append(want)
        for p, want in zip(published.RHO_ZERO_RECOVERED_P, published.RHO_ZERO_EXPECTED):
            self.anchor_rows.append({"p": p, "rho": [0.0] * len(p)})
            self.anchor_expected.append(want)
        for rho, want in zip(published.P_HALF_RECOVERED_RHO, published.P_HALF_EXPECTED):
            self.anchor_rows.append({"p": [0.5] * len(rho), "rho": rho})
            self.anchor_expected.append(want)

    def experiment_seed(self, k: int) -> int:
        return self.seed * 1_000_000 + k % 1_000_000

    def out(self, k: int) -> str:
        return self.path("warm.csv" if k < 0 else "table.csv")

    def argv(self, k):
        return [
            "experiment", "--n", str(self.n), "--mode", self.modes[k % self.round_size],
            "--replicates", str(self.replicates), "--seed", str(self.experiment_seed(k)),
            "--out", self.out(k),
        ]

    def setup(self, run_op):
        rows_file = self.path("anchor_rows.json")
        with open(rows_file, "w") as fh:
            json.dump(self.anchor_rows, fh)
        run_op(["experiment", "--params-file", rows_file, "--out", self.path("anchor.csv")], False)
        self.warm_rc = run_op(self.argv(self.warm_k), False)[0]

    def check_setup(self):
        rows = _read_csv(self.path("anchor.csv"))
        _require(len(rows) == len(self.anchor_rows), "anchor row count")
        _check_experiment_rows(rows, self.tables6)
        columns = ("e_str", "e_strprime", "rho_t", "var_str", "var_strbar", "var_strprime")
        for row, want in zip(rows, self.anchor_expected):
            for column, value in zip(columns, want):
                _require(
                    abs(float(row[column]) - value) <= self.anchor_tol,
                    f"published row: {column} = {row[column]}, published {value}",
                )
        self.check(self.warm_k, self.warm_rc, "")

    def check(self, k, rc, stdout):
        _require(rc == 0, f"exit code {rc}")
        mode = self.modes[k % self.round_size]
        rows = _read_csv(self.out(k))
        _require(len(rows) == self.replicates, f"{len(rows)} rows")
        _require([int(r["replicate"]) for r in rows] == list(range(self.replicates)), "replicate order")
        for row in rows:
            p = [float(v) for v in row["p"].split(";")]
            rho = [float(v) for v in row["rho"].split(";")]
            if mode == "rho-zero":
                _require(all(v == 0.0 for v in rho), "rho-zero row with nonzero rho")
            if mode == "p-half":
                _require(all(v == 0.5 for v in p), "p-half row with p != 1/2")
        refs = _check_experiment_rows(rows, self.tables)
        _check_summary(self.out(k) + ".summary.json", refs)
        return True


# --- exact-n10 ------------------------------------------------------------


class ExactN10(Workload):
    """`exact` on a distinct n=10 parameter point per call."""

    name = "exact-n10"
    round_size = 1
    n = 10

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir)
        self.tables = reference.CountTables(self.n)

    def point(self, k: int):
        rng = np.random.default_rng([self.seed, k % 2**32])
        return rng.random(self.n).tolist(), rng.random(self.n).tolist()

    def out(self, k: int) -> str:
        return self.path("warm.json" if k < 0 else "exact.json")

    def argv(self, k):
        p, rho = self.point(k)
        params = self.path("params.json")
        with open(params, "w") as fh:
            json.dump({"p": p, "rho": rho}, fh)
        return ["exact", "--params-file", params, "--out", self.out(k)]

    def setup(self, run_op):
        self.warm_rc = run_op(self.argv(self.warm_k), False)[0]

    def check_setup(self):
        self.check(self.warm_k, self.warm_rc, "")

    def check(self, k, rc, stdout):
        _require(rc == 0, f"exit code {rc}")
        with open(self.out(k)) as fh:
            report = json.load(fh)
        ref = reference.exact_moments(*self.point(k), self.tables)
        for key, want in ref.items():
            _require(reference.agrees_full(report[key], want), f"{key} = {report[key]!r}, reference {want!r}")
        _require(report["Var_strbar"] <= report["Var_str"] + reference.FULL_PRECISION_ABS, "Var(str_bar) > Var(str)")
        for stat, mean in (("strbar", "E_str"), ("strprime", "E_strprime")):
            mse = report[f"Var_{stat}"] + (report[mean] - report["rho_T"]) ** 2
            _require(reference.agrees_full(report[f"MSE_{stat}_vs_rhoT"], mse), f"MSE_{stat} != Var + bias^2")
        return True


# --- estimate-graphs ------------------------------------------------------

# Vertex pairs of a 100-vertex graph: each pair (X, Y) is two graphs' edge
# indicator vectors.
GRAPH_EDGES = 100 * 99 // 2
# balance.balanced_alignment_strength starts its binomial weight at
# 2^-Delta, which is 0.0 in double precision past this Delta.
STR_BAR_UNDERFLOW_DELTA = 1074
# Entropy of the one batch whose inputs do not depend on --seed.
FIXED_ENTROPY = 20201117

# Pair kinds: p range and rho range.  The first three keep Delta below 900
# on every pair; "low-corr" keeps it above 1300, past the underflow.
PAIR_KINDS = {
    "dense-high": ((0.3, 0.5), (0.7, 0.95)),
    "sparse": ((0.02, 0.1), (0.2, 0.9)),
    "mid": ((0.1, 0.3), (0.6, 0.9)),
    "low-corr": ((0.35, 0.65), (0.2, 0.4)),
}
# The batches of one round: (pair kinds, inputs fixed).  The three mixed
# batches cost about the same, so the median call does not jump between
# kinds; the low-corr batch shows the kept fault on every pair.
BATCHES = (
    (("dense-high", "sparse", "mid"), False),
    (("dense-high", "sparse", "mid"), False),
    (("dense-high", "sparse", "mid"), False),
    (("low-corr",), True),
)

ESTIMATE_COLUMNS = ("d_x", "d_y", "d_xy", "d_cap", "str", "str_bar", "str_prime")


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One draw from each of `count` equal strata of [lo, hi), shuffled."""
    cells = (rng.permutation(count) + rng.random(count)) / count
    return lo + (hi - lo) * cells


def make_batch(seed: int, batch: int, pairs: int):
    """Correlated Bernoulli graph pairs with per-pair (p, rho).

    Pair j is of kind j mod (number of kinds); each kind's p and rho are
    stratified over its ranges.  X ~ Bernoulli(p) per edge; Y copies X
    with probability rho and is an independent Bernoulli(p) otherwise, so
    corr(X, Y) = rho.
    """
    kinds, fixed = BATCHES[batch]
    rng = np.random.default_rng([FIXED_ENTROPY if fixed else seed, batch])
    ps = np.empty(pairs)
    rhos = np.empty(pairs)
    for i, kind in enumerate(kinds):
        members = np.arange(i, pairs, len(kinds))
        p_range, rho_range = PAIR_KINDS[kind]
        ps[members] = _stratified(rng, *p_range, len(members))
        rhos[members] = _stratified(rng, *rho_range, len(members))
    xs, ys = [], []
    for p, rho in zip(ps, rhos):
        x = rng.random(GRAPH_EDGES) < p
        y = np.where(rng.random(GRAPH_EDGES) < rho, x, rng.random(GRAPH_EDGES) < p)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def _bits(v: np.ndarray) -> str:
    return v.astype(np.uint8).tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode()


class EstimateGraphs(Workload):
    """`estimate` on batches of 100-vertex graph pairs, four per round.

    Fault kept: on a pair with Delta > 1074, str_bar is printed as 0.
    Every low-corr batch shows it, so one operation in four fails, in
    every run and on every seed, until the fault is mended.
    """

    name = "estimate-graphs"
    round_size = len(BATCHES)
    per_pair_estimates = True
    pairs = 32

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir)
        self.batches = []
        self.expected = {}

    def batch_file(self, batch: int) -> str:
        return self.path(f"batch{batch}.csv")

    def out(self, k: int) -> str:
        return self.path("warm_estimates.csv" if k < 0 else "estimates.csv")

    def argv(self, k):
        return ["estimate", self.batch_file(k % self.round_size), "--out", self.out(k)]

    def setup(self, run_op):
        for batch in range(len(BATCHES)):
            xs, ys = make_batch(self.seed, batch, self.pairs)
            self.batches.append((xs, ys))
            lines = ["sample_id,x_bits,y_bits"]
            lines += [f"{j},{_bits(x)},{_bits(y)}" for j, (x, y) in enumerate(zip(xs, ys))]
            with open(self.batch_file(batch), "w") as fh:
                fh.write("\n".join(lines) + "\n")
        self.warm_rc = run_op(self.argv(self.warm_k), False)[0]

    def check_setup(self):
        self.check(self.warm_k, self.warm_rc, "")

    def reference_rows(self, batch: int) -> list[dict]:
        if batch not in self.expected:
            xs, ys = self.batches[batch]
            self.expected[batch] = [reference.pair_estimates(x, y) for x, y in zip(xs, ys)]
        return self.expected[batch]

    def check(self, k, rc, stdout):
        _require(rc == 0, f"exit code {rc}")
        refs = self.reference_rows(k % self.round_size)
        rows = _read_csv(self.out(k))
        _require(len(rows) == len(refs), f"{len(rows)} rows for {len(refs)} pairs")
        known_fault = 0
        for j, (row, ref) in enumerate(zip(rows, refs)):
            _require(int(row["sample_id"]) == j, "sample order")
            _require(int(row["delta"]) == ref["delta"], f"pair {j}: delta {row['delta']} != {ref['delta']}")
            for column in ESTIMATE_COLUMNS:
                if reference.agrees_printed(row[column], ref[column]):
                    continue
                underflow = (
                    column == "str_bar"
                    and ref["delta"] > STR_BAR_UNDERFLOW_DELTA
                    and float(row[column]) == 0.0
                )
                _require(underflow, f"pair {j}: {column} = {row[column]}, reference {ref[column]!r}")
                known_fault += 1
        return known_fault == 0


# --- verify-fast ----------------------------------------------------------

# The nine checks of `verify --level fast`, as `corrbern.verify.run_checks`
# names them.  A run that prints fewer, more or other checks is wrong:
# dropping a check must not read as a faster verify.
VERIFY_CHECK_LABELS = (
    "density identities",
    "str closed forms agree",
    "balancing oracles",
    "str_bar mutant control",
    "Kronecker coefficient identity",
    "completeness",
    "non-existence certificates",
    "sigma2 UMVUE unbiased",
    "Rao-Blackwell contract",
)
VERIFY_TOTAL = f"{len(VERIFY_CHECK_LABELS)}/{len(VERIFY_CHECK_LABELS)} checks passed"


class VerifyFast(Workload):
    """`verify --level fast`: the self-check battery, every check must pass."""

    name = "verify-fast"
    round_size = 1
    capture = True

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir)

    def argv(self, k):
        return ["verify", "--level", "fast"]

    def setup(self, run_op):
        self.warm = run_op(self.argv(self.warm_k), True)

    def check_setup(self):
        self.check(self.warm_k, *self.warm)

    def check(self, k, rc, stdout):
        _require(rc == 0, f"exit code {rc}")
        lines = stdout.strip().splitlines()
        _require(lines[-1:] == [VERIFY_TOTAL], f"check total {lines[-1:]}")
        _require(len(lines) == len(VERIFY_CHECK_LABELS) + 1, f"{len(lines) - 1} check lines")
        for line, label in zip(lines, VERIFY_CHECK_LABELS):
            _require(line.startswith(f"PASS  {label}  "), f"expected PASS of {label!r}: {line}")
        return True


WORKLOADS = {w.name: w for w in (TablesN8, ExactN10, EstimateGraphs, VerifyFast)}
