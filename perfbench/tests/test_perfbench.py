"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, CliWorkload, LazyW64, load_pins  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_line(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace, section):
    result = last_line(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_self_time_subtracts_the_union_of_child_spans():
    # 0: root [0, 100); 1: child [10, 40) with grandchild 2 [20, 30);
    # 3 and 4: overlapping children of the root, [50, 70) and [60, 80).
    start = [0, 10, 20, 50, 60]
    end = [100, 40, 30, 70, 80]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == [100 - 30 - 30, 30 - 10, 10, 20, 20]
    # the result does not depend on the order the spans were recorded in
    order = [4, 2, 0, 3, 1]
    where = {old: new for new, old in enumerate(order)}
    shuffled = self_times(
        [start[i] for i in order], [end[i] for i in order],
        [where.get(parent[i], -1) for i in order],
    )
    assert [shuffled[where[i]] for i in range(5)] == [40, 20, 10, 20, 20]


@pytest.fixture
def toy_pins():
    sys.path.insert(0, str(run.SRC))
    return load_pins("toy")


def first_op(workload):
    session = run.Session(workload, traced=False)
    return session.cold, session.measure(0)


def test_wrong_pinned_digest_counts_as_failed_op(toy_pins):
    step = "table --model builtin:B --n 3"
    assert first_op(CliWorkload("table-build", "toy", toy_pins))[1][0].ok
    toy_pins["cli"][step] = dict(toy_pins["cli"][step], sha256="0" * 64)
    cold, results = first_op(CliWorkload("table-build", "toy", toy_pins))
    assert not cold.ok and not results[0].ok
    assert "pinned" in results[0].detail


def test_wrong_pinned_level_counts_as_failed_op(toy_pins):
    toy_pins["lazy-w64"]["F"] = str(int(toy_pins["lazy-w64"]["F"]) + 1)
    _, results = first_op(LazyW64("toy", 0, toy_pins))
    assert not results[0].ok and "pinned" in results[0].detail


def test_tail_is_p90_or_higher_with_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(1, 201)))
    assert (pct, beyond) == (95.0, 10) and 190 < value < 191
    value, pct, beyond = run.tail([float(x) for x in range(1, 12)])
    assert (value, pct, beyond) == (10.0, 90.0, 1)
    assert run.tail([2.0]) == (2.0, 90.0, 0)
