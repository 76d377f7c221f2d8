"""Bad arguments to the public API return or raise DomainError, and never
hang.

The battery calls each public entry point of indexing, permutations,
ValueTable, bench and layout, the composition counts of multinomial,
builtin_model, normal_cdf, ExactScalar and parse_scalar with valid
arguments, then with each argument but the table or model replaced in
turn by each value of BAD.
It runs in a child process under a wall-time limit and an address-space
cap, so that a call that hangs or grows without bound fails the test
instead of stalling the session or the machine.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quantperm import *
from quantperm import bench, permutations
from quantperm.layout import LayoutModel
from quantperm.errors import shown
from quantperm.multinomial import MAX_WIDTH
"""

BATTERY = """
BAD = (True, -1, 1.5, None, "3", 2**70, (1,), 10**5000, [], (1, 1, 1, True))
a = builtin_model("A")
ta = build_value_table(a, 3)
perm = canonical_permutation(ta)
lay = LayoutModel(1)
CALLS = {
    "decode_weight_index": (decode_weight_index, a, 3, 5),
    "encode_weight_index": (encode_weight_index, a, (1, 2, 1)),
    "iweight": (iweight, ta, 5),
    "istep": (istep, ta, 5),
    "is_n": (is_n, ta, 5),
    "is_star": (is_star, ta, 5),
    "tau2": (tau2, a, 3, 1, 5, 0),
    "alpha": (alpha, ta, 1, 5),
    "beta_bruteforce": (beta_bruteforce, ta, 1, 5),
    "beta_fast": (beta_fast, ta, 1, 5),
    "beta_fast_trace": (beta_fast_trace, ta, 1, 5),
    "enum_a": (enum_a, ta, 1, 2),
    "enum_b": (enum_b, ta, 1, 2),
    "ria": (ria, ta, 1, 5),
    "rib": (rib, ta, 1, 5),
    "f_perm": (f_perm, ta, 5),
    "inv_f": (inv_f, ta, 5),
    "gamma_relation": (gamma_relation, ta, 5, 5),
    "AdmissiblePermutation": (AdmissiblePermutation, ta, list(perm.mapping)),
    "from_rows": (AdmissiblePermutation.from_rows, ta, perm.rows),
    "perm": (perm, 5),
    "perm.row": (perm.row, 5),
    "perm.entry": (perm.entry, 1, 5),
    "make_admissible": (make_admissible, ta, perm.block_perms),
    "as_permutation": (permutations.as_permutation, ta, perm),
    "blocks_of": (permutations.blocks_of, ta, perm),
    "admissibility_failure": (permutations.admissibility_failure, ta, perm),
    "random_admissible": (random_admissible, ta, 3),
    "ValueTable.tau1": (ta.tau1, (1, 2), 1),
    "ValueTable.tau1_members": (ta.tau1_members, 1),
    "ValueTable.class_of": (ta.class_of, (1, 2)),
    "ValueTable.gamma": (ta.gamma, 1),
    "ValueTable.cdf": (ta.cdf, 1, "lt"),
    "fit_loglog_slope": (fit_loglog_slope, [(1, 1), (2, 4)]),
    "bench_scaling": (bench_scaling, a, "A", [1, 2], 1, 0),
    "table_checks": (bench.table_checks, ta, 0),
    "selftest": (selftest, a, 2, 0),
    "parse_scalar": (parse_scalar, "1/2 * sqrt(2)", 2),
    "ExactScalar": (ExactScalar, 1, 1, 2),
    "multinomial_coefficient": (multinomial_coefficient, 3, (1, 2)),
    "enumerate_compositions": (lambda n, m: list(enumerate_compositions(n, m)), 3, 2),
    "composition_count": (composition_count, 3, 2),
    "builtin_model": (builtin_model, "A"),
    "normal_cdf": (normal_cdf, 0.5),
    "LayoutModel": (LayoutModel, 1),
    "LayoutModel.row_block": (lay.row_block, 3),
    "LayoutModel.row_length": (lay.row_length, 3),
    "LayoutModel.row_entries": (lay.row_entries, 3),
    "LayoutModel.entry": (lay.entry, 2, 1, 1),
    "LayoutModel.decompose": (lay.decompose, 5),
    "LayoutModel.jbar": (lay.jbar, 2, 1),
    "LayoutModel.jbar_set": (lay.jbar_set, 2),
    "LayoutModel.jbar_union": (lay.jbar_union, 3),
}
calls = faults = 0
for name, (call, *args) in CALLS.items():
    for i, arg in enumerate(args):
        if isinstance(arg, (ValueTable, OutcomeModel)):
            continue
        for bad in BAD:
            calls += 1
            try:
                call(*args[:i], bad, *args[i + 1:])
            except DomainError:
                pass
            except Exception as e:
                faults += 1
                print(f"{name} argument {i} = {shown(bad)}: {type(e).__name__}: {shown(str(e))}")
print(calls, faults)
"""

WIDE_DECODE = """
for model in (builtin_model("A"), builtin_model("B")):
    mp1 = model.M + 1
    top = MAX_WIDTH // mp1
    ranks = decode_weight_index(model, top, 1)
    assert len(ranks) == top and tau2(model, top, 1, 1, 0) == ranks.count(1)
    for n in (top + 1, 2**70):
        for call in (lambda: decode_weight_index(model, n, 1), lambda: tau2(model, n, 1, 1, 0)):
            try:
                call()
            except DomainError as e:
                assert "MAX_WIDTH" in str(e), e
            else:
                raise AssertionError(f"n = {n} decoded")
print("ok")
"""


def _child(script):
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_every_bad_argument_returns_or_is_a_domain_error():
    *faults, last = _child(BATTERY)
    calls, count = map(int, last.split())
    assert calls > 500 and count == 0, "\n".join(faults)


def test_decoding_past_max_width_is_refused():
    # decode_weight_index builds a tuple of n ranks, so a level in range
    # at an n past MAX_WIDTH // (M + 1) is refused before the loop; tau2
    # decodes first
    assert _child(WIDE_DECODE) == ["ok"]
