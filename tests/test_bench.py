"""Scaling benchmarks, the structural self-test battery, and the
functions the traced benchmark run wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from quantperm import (
    DomainError,
    bench_scaling,
    build_value_table,
    builtin_model,
    fit_loglog_slope,
    selftest,
)
from quantperm.bench import table_checks


def test_fit_loglog_slope():
    xs = [4, 8, 16, 32]
    assert fit_loglog_slope([(x, x**2) for x in xs]) == pytest.approx(2.0)
    assert fit_loglog_slope([(x, 5 * x) for x in xs]) == pytest.approx(1.0)
    assert fit_loglog_slope([(x, 7) for x in xs]) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        fit_loglog_slope([(4, 16)])


def test_degenerate_fits_and_sizes_are_domain_errors():
    # equal x divided by zero; a point at or below 0 hit log's domain
    for points in ([(4, 16), (4, 20)], [(0, 1), (4, 16)], [(4, 16), (8, -1)]):
        with pytest.raises(DomainError, match="slope fit"):
            fit_loglog_slope(points)
    with pytest.raises(DomainError, match="samples_per_n"):
        bench_scaling(builtin_model("A"), "A", [4, 8], samples_per_n=1.5)
    for sizes in (["4"], [4, None], 5, None):
        with pytest.raises(DomainError, match="n_list"):
            bench_scaling(builtin_model("A"), "A", sizes)


def test_bench_smoke_and_determinism():
    model = builtin_model("A")
    r1 = bench_scaling(model, "A", [4, 8], samples_per_n=2, seed=3)
    r2 = bench_scaling(model, "A", [4, 8], samples_per_n=2, seed=3)
    ops1 = [(r.n, r.operation, r.tau1_queries, r.bigint_ops) for r in r1.records]
    ops2 = [(r.n, r.operation, r.tau1_queries, r.bigint_ops) for r in r2.records]
    assert ops1 == ops2
    fast = [r for r in r1.records if r.operation == "fperm"]
    assert len(fast) == 4 and all(r.tau1_queries > 0 for r in fast)
    assert r1.slope == r2.slope
    assert [n for n, _ in r1.mean_queries] == [4, 8]


def test_bench_brute_contrast_records():
    model = builtin_model("A")
    result = bench_scaling(model, "A", [8, 25], samples_per_n=1, seed=0)
    brute = {r.n: r for r in result.records if r.operation == "brute-sweep"}
    # width 8 is small enough to actually run; width 25 is recorded as
    # a cost estimate only
    assert brute[8].wall_time > 0.0
    assert brute[8].bigint_ops == 2**8
    assert brute[25].wall_time == 0.0
    assert brute[25].bigint_ops == 2**25


def test_bench_rejects_bad_args():
    model = builtin_model("A")
    with pytest.raises(DomainError):
        bench_scaling(model, "A", [])
    with pytest.raises(DomainError):
        bench_scaling(model, "A", [4], samples_per_n=0)


def test_selftest_passes():
    report = selftest(builtin_model("A"), 5, seed=1)
    assert report.ok
    names = {c.name for c in report.results}
    assert {
        "gamma-sum",
        "table-monotone",
        "beta-equivalence",
        "beta-partition",
        "alpha-beta-gamma",
        "f-admissible",
        "f-inverse",
        "representation",
        "walk-mass",
    } <= names
    assert "haar-moments" not in names  # A is not built from wavelet data
    assert {c.n for c in report.results} == set(range(1, 6))

    report_b = selftest(builtin_model("B"), 3, seed=1)
    assert report_b.ok
    assert "haar-moments" in {c.name for c in report_b.results}


# bigint_ops of the sweep workload, selftest of B to n_max = 5 and of A to
# n_max = 10: each walk resumes from its class's checkpoint path, so a
# lost resumption raises the count
SWEEP_BIGINT_OPS = 63752


def test_sweep_bigint_ops_pinned(monkeypatch):
    from quantperm import bench

    tables = []

    def build(model, n):
        tables.append(build_value_table(model, n))
        return tables[-1]

    monkeypatch.setattr(bench, "build_value_table", build)
    for name, n_max in (("B", 5), ("A", 10)):
        assert selftest(builtin_model(name), n_max).ok
    assert sum(table.stats.bigint_ops for table in tables) == SWEEP_BIGINT_OPS


def test_selftest_rejects_oversized_request():
    with pytest.raises(DomainError):
        selftest(builtin_model("B"), 13)
    with pytest.raises(DomainError):
        selftest(builtin_model("A"), 0)


def test_corrupted_table_is_caught():
    table = build_value_table(builtin_model("A"), 4)
    values = list(table.values)
    values[1], values[2] = values[2], values[1]
    object.__setattr__(table, "values", tuple(values))
    checks = table_checks(table, seed=0)
    failed = {c.name for c in checks if not c.passed}
    # the damage is localized: only the ordering check trips
    assert failed == {"table-monotone"}


@pytest.mark.parametrize("bad_xi", [5, 7])
def test_partition_and_gamma_checks_read_the_fast_values(monkeypatch, bad_xi):
    # one beta_fast value off by one must trip the partition identity,
    # which the sweep's own tally satisfies by construction, and at the
    # top level (7 for A at n = 3) the gamma identity as well
    from quantperm import bench

    real = bench.beta_fast

    def off_by_one(table, t, xi):
        return real(table, t, xi) + (1 if (t, xi) == (1, bad_xi) else 0)

    monkeypatch.setattr(bench, "beta_fast", off_by_one)
    checks = table_checks(build_value_table(builtin_model("A"), 3), seed=0)
    failed = {c.name for c in checks if not c.passed}
    assert {"beta-equivalence", "beta-partition"} <= failed
    assert ("alpha-beta-gamma" in failed) == (bad_xi == 7)


def test_broken_f_is_reported_not_raised(monkeypatch):
    # an identity F_n on A at n = 3 is not admissible: its three checks
    # fail as rows, and every other check still runs
    from quantperm import bench

    monkeypatch.setattr(bench, "f_perm", lambda table, ell: ell)
    checks = table_checks(build_value_table(builtin_model("A"), 3), seed=0)
    failed = {c.name for c in checks if not c.passed}
    assert failed == {"f-admissible", "f-inverse", "representation"}
    assert checks[-1].name == "walk-mass"


def test_check_counts_are_honest():
    table = build_value_table(builtin_model("A"), 3)
    checks = table_checks(table, seed=0)
    by_name = {c.name: c for c in checks}
    assert by_name["gamma-sum"].checked == table.T + 1
    assert by_name["beta-equivalence"].checked == (table.T + 1) * 2**3
    assert by_name["f-admissible"].checked == 2**3
    assert by_name["gamma-sum"].detail == "sum=8, m^n=8"


def test_traced_functions_exist():
    # perfbench/run.py --trace 1 wraps each of these; a missing one breaks it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in tracer.TRACED:
        mod = importlib.import_module(f"quantperm.{module}")
        assert callable(getattr(mod, name, None)), (module, name)
