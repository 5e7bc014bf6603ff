"""Which corrbern functions the traced run wraps, and the per-layer metrics.

Each function is wrapped in the namespace its caller looks it up in:
`cli` binds its helpers at import, `experiment` calls its own module
globals (also from pool threads), the estimators reach `densities` and
`delta_stat` through `stats` and `balance`, and `verify` calls
`balance`, `oracle` and `linsys` through their modules.

Time metrics are milliseconds per operation (CLI call) of self time,
except `experiment.run_wall_ms`, `experiment.row_busy_ms` and the
`verify.*_ms` checks, which are inclusive, and `experiment.tables_build*`,
which total the whole process, set-up included.  Counts are per
operation unless named otherwise.
"""

from __future__ import annotations

VERIFY_CHECKS = (
    "density_identities",
    "str_forms_agree",
    "balancing_oracles",
    "strbar_negative_control",
    "kron_identity",
    "completeness",
    "nonexistence",
    "sigma2_umvue",
    "rao_blackwell",
)


def _delta(point) -> int:
    return sum(a != b for a, b in zip(point.x, point.y))


def install(tracer, modules, seen_tables: dict, per_pair: bool) -> None:
    """Wrap the traced functions; `seen_tables` persists across installs.

    per_pair also wraps the estimators and the density and Delta helpers
    they call.  Only the estimate workload calls those once per input
    pair; the verify battery calls them on every member of every class
    it enumerates, tens of thousands of times per call, where a wrapper
    on each would multiply its run time.
    """
    cli, experiment, stats, balance, oracle, linsys, verify = (
        modules[name]
        for name in ("cli", "experiment", "stats", "balance", "oracle", "linsys", "verify")
    )

    def tables_name(result):
        # A cached lookup returns an object seen before.  Holding each one
        # keeps its id from being reused.
        if id(result) in seen_tables:
            return "experiment.tables_lookup"
        seen_tables[id(result)] = result
        return "experiment.tables_build"

    def prob_vector_counts(args, kwargs, result):
        return {"experiment.points_evaluated": int(result.size), "experiment.bytes_computed": int(result.nbytes)}

    def str_bar_terms(args, kwargs, result):
        return {"balance.str_bar_terms": _delta(args[0]) + 1}

    def class_members(args, kwargs, result):
        return {"balance.class_members": 1 << _delta(args[1])}

    def points_visited(args, kwargs, result):
        stat, params = args[0], args[1]
        balanced = getattr(stat, "balanced", False) or kwargs.get("balanced", False)
        if len(args) > 2:
            balanced = balanced or args[2]
        n = params.n_components
        return {"oracle.points_visited": 3**n if balanced else 4**n}

    def dense_entries(args, kwargs, result):
        return {"linsys.dense_entries": int(result.size)}

    def graph_pairs(args, kwargs, result):
        return {"model.graph_pairs": 1}

    patches = [
        (cli, "parse_sample_file", "cli.parse", None, None),
        (cli, "GraphPair", "model.graph_pair", graph_pairs, None),
        (cli, "_write", "cli.write", None, None),
        (cli, "rows_to_csv_lines", "experiment.csv", None, None),
        (cli, "run_experiment", "experiment.run", None, None),
        (cli, "exact_report", "experiment.exact_report", None, None),
        (experiment, "point_probability_vector", "experiment.prob_vector", prob_vector_counts, None),
        (experiment, "exact_experiment_row", "experiment.row", None, None),
        (experiment, "draw_params", "experiment.draw_params", None, None),
        (experiment, "sample_space_tables", "experiment.tables", None, tables_name),
        (experiment, "param_functionals", "stats.param_functionals", None, None),
        (balance, "balance_brute", "balance.balance_brute", class_members, None),
        (oracle, "exact_moments", "oracle.exact_moments", points_visited, None),
        (linsys, "kron_power_A", "linsys.kron_power_A", dense_entries, None),
        (linsys, "verify_completeness", "linsys.verify_completeness", None, None),
    ]
    patches += [
        (verify, f"check_{check}", f"verify.{check}", None, None) for check in VERIFY_CHECKS
    ]
    if per_pair:
        patches += [
            (module, attr, f"stats.{attr}", None, None)
            for module in (cli, stats, balance)
            for attr in ("densities", "delta_stat")
        ]
        patches += [
            (balance, "STAT_STR", "stats.str", None, None),
            (balance, "STAT_STR_BAR", "balance.str_bar", str_bar_terms, None),
            (balance, "STAT_STR_PRIME", "balance.str_prime", None, None),
        ]
    for module, attr, name, count, rename in patches:
        tracer.patch(module, attr, name, count, rename)


# name, unit, better
PER_LAYER = [
    ("experiment.prob_vector_ms", "ms", "lower"),
    ("experiment.prob_vector_calls", "count", "lower"),
    ("experiment.moments_ms", "ms", "lower"),
    ("experiment.draw_params_ms", "ms", "lower"),
    ("experiment.csv_ms", "ms", "lower"),
    ("experiment.tables_build_ms", "ms", "lower"),
    ("experiment.tables_builds", "count", "lower"),
    ("experiment.points_evaluated", "count", "lower"),
    ("experiment.bytes_computed", "bytes", "lower"),
    ("experiment.run_wall_ms", "ms", "lower"),
    ("experiment.row_busy_ms", "ms", "lower"),
    ("stats.param_functionals_ms", "ms", "lower"),
    ("stats.densities_calls_per_pair", "count", "lower"),
    ("stats.densities_ms", "ms", "lower"),
    ("stats.delta_stat_ms", "ms", "lower"),
    ("stats.str_ms", "ms", "lower"),
    ("balance.str_bar_ms", "ms", "lower"),
    ("balance.str_bar_terms", "count", "lower"),
    ("balance.str_prime_ms", "ms", "lower"),
    ("balance.balance_brute_ms", "ms", "lower"),
    ("balance.class_members", "count", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("model.graph_pair_ms", "ms", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("cli.main_self_ms", "ms", "lower"),
    ("oracle.exact_moments_ms", "ms", "lower"),
    ("oracle.points_visited", "count", "lower"),
    ("linsys.kron_power_A_ms", "ms", "lower"),
    ("linsys.dense_entries", "count", "lower"),
    ("linsys.verify_completeness_ms", "ms", "lower"),
    *((f"verify.{check}_ms", "ms", "lower") for check in VERIFY_CHECKS),
    ("trace.overhead_pct", "%", "lower"),
]


def metrics(tracer, ops: int, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric from one traced run of `ops` operations."""

    def self_ms(name):
        return tracer.self_ms(name) / ops

    def total_ms(name):
        return tracer.total_ms(name) / ops

    def per_op(counter):
        return tracer.counter(counter) / ops

    pairs = tracer.counter("model.graph_pairs")
    values = {
        "experiment.prob_vector_ms": self_ms("experiment.prob_vector"),
        "experiment.prob_vector_calls": tracer.calls("experiment.prob_vector") / ops,
        "experiment.moments_ms": self_ms("experiment.row"),
        "experiment.draw_params_ms": self_ms("experiment.draw_params"),
        "experiment.csv_ms": self_ms("experiment.csv"),
        "experiment.tables_build_ms": tracer.total_ms("experiment.tables_build", "all"),
        "experiment.tables_builds": tracer.calls("experiment.tables_build", "all"),
        "experiment.points_evaluated": per_op("experiment.points_evaluated"),
        "experiment.bytes_computed": per_op("experiment.bytes_computed"),
        "experiment.run_wall_ms": total_ms("experiment.run"),
        "experiment.row_busy_ms": total_ms("experiment.row"),
        "stats.param_functionals_ms": self_ms("stats.param_functionals"),
        "stats.densities_calls_per_pair": tracer.calls("stats.densities") / pairs if pairs else 0.0,
        "stats.densities_ms": self_ms("stats.densities"),
        "stats.delta_stat_ms": self_ms("stats.delta_stat"),
        "stats.str_ms": self_ms("stats.str"),
        "balance.str_bar_ms": self_ms("balance.str_bar"),
        "balance.str_bar_terms": per_op("balance.str_bar_terms"),
        "balance.str_prime_ms": self_ms("balance.str_prime"),
        "balance.balance_brute_ms": self_ms("balance.balance_brute"),
        "balance.class_members": per_op("balance.class_members"),
        "cli.parse_ms": self_ms("cli.parse"),
        "model.graph_pair_ms": self_ms("model.graph_pair"),
        "cli.write_ms": self_ms("cli.write"),
        "cli.main_self_ms": self_ms("cli.main"),
        "oracle.exact_moments_ms": self_ms("oracle.exact_moments"),
        "oracle.points_visited": per_op("oracle.points_visited"),
        "linsys.kron_power_A_ms": self_ms("linsys.kron_power_A"),
        "linsys.dense_entries": per_op("linsys.dense_entries"),
        "linsys.verify_completeness_ms": self_ms("linsys.verify_completeness"),
    }
    for check in VERIFY_CHECKS:
        values[f"verify.{check}_ms"] = total_ms(f"verify.{check}")
    values["trace.overhead_pct"] = overhead_pct
    return values
