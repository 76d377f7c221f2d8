"""Wide tables in bounded memory: the M = 2 Haar model at width 63, the
explicit layer of A at width 22, a permutation file at width 20, and the
lazy walks of B at width 380.

perfbench/inputs/haar_m2.json at n = 21 has 1,184,040 compositions in
618,391 classes, the largest table MAX_COMPOSITIONS admits for M = 2.
Each check runs in a child process so that its wall time and peak RSS
are its own, not the test session's.  The child reads its peak as VmHWM:
Linux carries ru_maxrss across exec, so a child's ru_maxrss is at least
the peak of the test session that spawned it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantperm import DomainError, build_value_table, load_model
from quantperm.multinomial import MAX_COMPOSITIONS, composition_count

ROOT = Path(__file__).resolve().parents[1]
HAAR_M2 = ROOT / "perfbench" / "inputs" / "haar_m2.json"

PEAK = """
import resource


def peak_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""

CHILD = """
import random, sys, time
from quantperm import build_value_table, f_perm, gamma_relation, inv_f, load_model
from quantperm.indexing import _counts_by_code

t0 = time.perf_counter()
table = build_value_table(load_model(sys.argv[1]), 21)
assert table.width == 63 and not _counts_by_code(table)
assert sum(map(len, table.members)) == 1_184_040 and table.T + 1 == 618_391
assert table.smc[-1] == sum(table.gammas) == 8**21
rng = random.Random(63)
for ell in [0, table.num_indices - 1] + [rng.randrange(table.num_indices) for _ in range(6)]:
    image = f_perm(table, ell)
    assert gamma_relation(table, ell, image), ell
    assert inv_f(table, image) == ell, ell
print(time.perf_counter() - t0, peak_kb())
"""


CHAIN = """
from quantperm import build_value_table, builtin_model, canonical_permutation
from quantperm.representation import representation_failure, representation_from_perm

table = build_value_table(builtin_model("A"), 22)
rep = representation_from_perm(table, canonical_permutation(table))
assert representation_failure(table, rep) is None
print(peak_kb())
"""


VERIFY_PERM = """
import sys
from quantperm.cli import main

assert main(["verify", "--model", "builtin:A", "--n", "20", "--perm", sys.argv[1]]) == 0
print(peak_kb())
"""


B_190 = """
import random
from quantperm import beta_fast, beta_fast_trace, build_value_table, builtin_model, enum_b, f_perm
from quantperm import indexing

table = build_value_table(builtin_model("B"), 190)
assert indexing._counts_by_code(table)
rng = random.Random(190)
most = 0
for _ in range(50):
    ell = rng.randrange(table.num_indices)
    indexing._forget_path(table, indexing.istep(table, ell))
    before = table.stats.bigint_ops
    f_perm(table, ell)
    most = max(most, table.stats.bigint_ops - before)
walks = []
for _ in range(4):
    xi = rng.randrange(table.num_indices)
    t = indexing.iweight(table, xi)
    walks.append((t, xi, 1 + rng.randrange(table.gammas[t])))
got = []
for by_code in (True, False):
    # the table decides on its next walk
    table._cache.clear()
    indexing._counts_by_code = lambda table: by_code
    got.append([
        (beta_fast(table, t, xi), beta_fast_trace(table, t, xi), enum_b(table, t, s))
        for t, xi, s in walks
    ])
assert got[0] == got[1]
print(most, table.n)
"""


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _child(script, *argv):
    done = subprocess.run(
        [sys.executable, "-c", PEAK + script, *argv],
        capture_output=True, text=True, timeout=60, env=_env(), check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_haar_m2_width_63_table_and_lazy_f():
    seconds, peak_kb = _child(CHILD, str(HAAR_M2))
    assert float(seconds) < 60
    assert int(peak_kb) < 1024 * 1024  # in KiB


def test_explicit_chain_at_width_22_in_bounded_memory():
    # F_n, its representation and the representation check on A n = 22
    # (4.2M levels) keep one 4-byte-per-level mapping and no per-level
    # class list
    (peak_kb,) = _child(CHAIN)
    assert int(peak_kb) < 48 * 1024


def test_verify_perm_file_at_width_20_in_bounded_memory(tmp_path):
    # F_n's own file on A n = 20 (1M rows) streams into one array
    path = tmp_path / "perm.csv"
    with path.open("w", encoding="utf-8") as fh:
        subprocess.run(
            [sys.executable, "-m", "quantperm.cli", "fperm", "--model", "builtin:A",
             "--n", "20", "--all"],
            stdout=fh, timeout=60, env=_env(), check=True,
        )
    out, peak_kb = _child(VERIFY_PERM, str(path))
    assert out == "true"
    assert int(peak_kb) < 64 * 1024


def test_one_past_the_budget_is_refused(time_limit):
    assert composition_count(21, 8) <= MAX_COMPOSITIONS < composition_count(22, 8)
    with time_limit(1):
        with pytest.raises(DomainError, match="MAX_COMPOSITIONS"):
            build_value_table(load_model(str(HAAR_M2)), 22)


def test_fresh_unrank_at_width_380_counts_by_code():
    # B at n = 190, the widest B that MAX_COMPOSITIONS admits, counts by
    # chunk code: a fresh f_perm takes one step, one row read, per chunk,
    # and ranks, traces and unranks agree with the table forced to count
    # by pairs
    most, n = map(int, _child(B_190))
    assert most == n == 190
