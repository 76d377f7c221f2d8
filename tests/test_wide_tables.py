"""Wide tables in bounded memory: the M = 2 Haar model at width 63, and
the explicit layer of A at width 22.

perfbench/inputs/haar_m2.json at n = 21 has 1,184,040 compositions in
618,391 classes, the largest table MAX_COMPOSITIONS admits for M = 2.
Each check runs in a child process so that its wall time and peak RSS
are its own, not the test session's.
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

CHILD = """
import random, resource, sys, time
from quantperm import build_value_table, f_perm, gamma_relation, inv_f, load_model

t0 = time.perf_counter()
table = build_value_table(load_model(sys.argv[1]), 21)
assert table.width == 63
assert sum(map(len, table.members)) == 1_184_040 and table.T + 1 == 618_391
assert table.smc[-1] == sum(table.gammas) == 8**21
rng = random.Random(63)
for ell in [0, table.num_indices - 1] + [rng.randrange(table.num_indices) for _ in range(6)]:
    image = f_perm(table, ell)
    assert gamma_relation(table, ell, image), ell
    assert inv_f(table, image) == ell, ell
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


CHAIN = """
import resource
from quantperm import build_value_table, builtin_model, canonical_permutation
from quantperm.representation import representation_failure, representation_from_perm

table = build_value_table(builtin_model("A"), 22)
rep = representation_from_perm(table, canonical_permutation(table))
assert representation_failure(table, rep) is None
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True, text=True, timeout=60, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_haar_m2_width_63_table_and_lazy_f():
    seconds, peak_kb = _child(CHILD, str(HAAR_M2))
    assert float(seconds) < 60
    assert int(peak_kb) < 1024 * 1024  # ru_maxrss is in KiB on Linux


def test_explicit_chain_at_width_22_in_bounded_memory():
    # F_n, its representation and the representation check on A n = 22
    # (4.2M levels) keep one mapping and the weight classes
    (peak_kb,) = _child(CHAIN)
    assert int(peak_kb) < 350 * 1024


def test_one_past_the_budget_is_refused(time_limit):
    assert composition_count(21, 8) <= MAX_COMPOSITIONS < composition_count(22, 8)
    with time_limit(1):
        with pytest.raises(DomainError, match="MAX_COMPOSITIONS"):
            build_value_table(load_model(str(HAAR_M2)), 22)
