"""Value tables, multinomial counts and the tau1 oracle.

Frozen class tables below were derived by enumerating the compositions
and sorting the sums by hand; the C-model table interleaves rational
and irrational sums, so getting it right requires the exact comparisons
(floats agree here, but the test asserts the exact path produces it).
"""

import gc
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantperm import (
    DomainError,
    ExactScalar,
    HaarSpec,
    build_haar,
    build_manual,
    build_value_table,
    composition_count,
    enumerate_compositions,
    load_model,
    multinomial_coefficient,
)
from quantperm.multinomial import MAX_WIDTH


def test_coefficient_examples():
    assert multinomial_coefficient(2, (1, 0, 0, 1)) == 2
    assert multinomial_coefficient(3, (1, 1, 1)) == 6
    assert multinomial_coefficient(4, (4, 0)) == 1
    assert multinomial_coefficient(0, (0, 0, 0)) == 1


def test_coefficient_validation():
    with pytest.raises(DomainError):
        multinomial_coefficient(3, (1, 1))  # sums to 2
    with pytest.raises(DomainError):
        multinomial_coefficient(1, (2, -1))


def test_enumeration_lex_order():
    assert list(enumerate_compositions(1, 2)) == [(0, 1), (1, 0)]
    assert list(enumerate_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    ks = list(enumerate_compositions(3, 4))
    assert len(ks) == composition_count(3, 4) == 20
    assert ks == sorted(ks)
    assert all(sum(k) == 3 for k in ks)


def test_enumeration_depth_does_not_grow_with_parts():
    # the build splits K_n into halves of m/2 + 1 parts: at M = 10 that is
    # 1,025 parts, past the interpreter's default recursion limit
    M = 10
    model = build_manual(
        M,
        [
            (tuple((c >> (M - i)) & 1 for i in range(M + 1)), ExactScalar(c))
            for c in range(2 ** (M + 1))
        ],
        strict=False,
    )
    table = build_value_table(model, 1)
    assert table.T + 1 == 2048
    assert table.gammas == (1,) * 2048
    ks = list(enumerate_compositions(1, 1500))
    assert len(ks) == composition_count(1, 1500) and ks == sorted(ks)


def test_counts_sum_to_power(tables):
    for name, n in (("A", 5), ("B", 3), ("C", 3)):
        table = tables(name, n)
        assert sum(
            multinomial_coefficient(n, k)
            for k in enumerate_compositions(n, table.model.m)
        ) == table.model.m**n
        assert sum(table.gammas) == table.num_indices
        assert table.smc[-1] == table.num_indices


def test_table_a_n2(tables):
    table = tables("A", 2)
    assert [v.text() for v in table.values] == ["-2", "0", "2"]
    assert table.gammas == (1, 2, 1)
    assert table.smc == (0, 1, 3, 4)
    assert table.members[1] == ((1, 1),)
    assert table.T == 2


def test_table_b_n2(tables):
    table = tables("B", 2)
    assert [v.text() for v in table.values] == [
        "-6", "-4", "-2", "0", "2", "4", "6"
    ]
    assert table.gammas == (1, 2, 3, 4, 3, 2, 1)
    assert table.smc == (0, 1, 3, 6, 10, 13, 15, 16)
    # class 3 (value 0) merges two compositions: -3-(-3) and -1+1 style hits
    assert table.members[3] == ((0, 1, 1, 0), (1, 0, 0, 1))
    assert table.gamma(3) == 4


def test_table_c_n2_interleaves_exactly(tables):
    table = tables("C", 2)
    assert table.gammas == (1, 2, 2, 1, 2, 2, 1, 2, 2, 1)
    assert table.class_of((1, 0, 0, 1)) == 5
    assert table.class_of((0, 2, 0, 0)) == 3
    # versus the rational neighbor: -5/6 sqrt(2) < -2 + 2/3 sqrt(2)
    assert table.values[2] < table.values[3]
    assert table.values[2].b != 0 and table.values[3].b != 0


def test_table_n1_is_model(tables, model_b):
    table = tables("B", 1)
    assert table.values == model_b.outcomes
    assert table.gammas == (1, 1, 1, 1)


def test_monotone_values(tables):
    # an M = 2 Haar model: sqrt(2) coefficients at level 1, rationals at 2
    haar = build_haar(
        HaarSpec(
            2,
            {
                (0, 0): ExactScalar(2),
                (1, 0): ExactScalar(0, Fraction(1, 2), 2),
                (1, 1): ExactScalar(0, Fraction(1, 3), 2),
                (2, 0): ExactScalar(Fraction(1, 5)),
                (2, 1): ExactScalar(Fraction(1, 7)),
                (2, 2): ExactScalar(Fraction(1, 11)),
                (2, 3): ExactScalar(Fraction(1, 13)),
            },
        )
    )
    cases = [
        tables(name, n)
        for name, n in (("A", 6), ("B", 3), ("B", 8), ("C", 3), ("C", 5))
    ]
    # Q(sqrt 3) with outcome denominators 2, 3 and 5: the lattice scales
    # by D = 30 and orders the classes by the d > 1 integer key
    root3 = build_manual(
        1,
        [
            ((0, 0), ExactScalar(Fraction(1, 2), Fraction(-1, 3), 3)),
            ((0, 1), ExactScalar(Fraction(-3, 5), Fraction(1, 2), 3)),
            ((1, 0), ExactScalar(Fraction(2, 3))),
            ((1, 1), ExactScalar(0, Fraction(-1, 5), 3)),
        ],
        strict=False,
    )
    assert root3.d == 3
    cases += [build_value_table(haar, n) for n in range(1, 5)]
    cases += [build_value_table(root3, n) for n in range(1, 9)]
    for table in cases:
        model = table.model
        for t in range(table.T):
            assert table.values[t] < table.values[t + 1]
        for t, ks in enumerate(table.members):
            for k in ks:
                total = model.zero()
                for s, count in enumerate(k, start=1):
                    total = total + model.outcome(s) * count
                assert total == table.values[t]
            assert all(a < b for a, b in zip(ks, ks[1:]))


def test_table_digests_pinned(model_a, model_b, model_c):
    """SHA-256 over (n, value texts, members, gammas, smc) for n = 1..n_max,
    pinned from the tables of the ExactScalar build that the integer
    lattice build replaced."""
    haar_m2 = load_model(str(Path(__file__).resolve().parents[1] / "perfbench/inputs/haar_m2.json"))
    pins = {
        "A": (model_a, 64, "434fdc2a79fcbba66b8f180a2891b043e4271e774d52eb18b25370d8778f5ece"),
        "B": (model_b, 32, "9ebd53745fef9d44e7fc76396586832ee807c27a02eb24a5ddd8d48b0c35ed5d"),
        "C": (model_c, 12, "0c3f8dd97d0e830e9ad5d56a2898fba299fdb838b217eb028126652a8ab9490b"),
        "haar_m2": (haar_m2, 10, "6e023870efbde800945d897769bb6ff1faa8dcb936750c389e4eadaf3fcb606a"),
    }
    for name, (model, n_max, pinned) in pins.items():
        h = hashlib.sha256()
        for n in range(1, n_max + 1):
            table = build_value_table(model, n)
            texts = tuple(v.text() for v in table.values)
            h.update(repr((n, texts, table.members, table.gammas, table.smc)).encode())
        assert h.hexdigest() == pinned, name


def test_tau1_and_counting(tables):
    table = tables("B", 2)
    table.stats.reset()
    assert table.tau1((1, 0, 0, 1), 3) == 1
    assert table.tau1((1, 0, 0, 1), 2) == 0
    assert table.stats.tau1_queries == 2
    members = table.tau1_members(3)
    assert members == table.members[3]
    assert table.stats.tau1_queries == 2 + composition_count(2, 4)
    with pytest.raises(DomainError):
        table.tau1((1, 1, 1, 1), 0)  # not a composition of 2
    with pytest.raises(DomainError):
        table.tau1((2, 0, 0, 0), 99)


# B at n = 2: (2, 0, -1, 1) is not a composition, but its lattice code
# -6 - 1 + 3 = -4 is the code of class 1 (value -4)
NON_COMPOSITIONS = [
    (2, 0, -1, 1),
    (1, 0, 1),
    (1, 0, 0, 1, 0),
    (1, 0, 0, "1"),
    (1.0, 0, 0, 1.0),
    (1, 1, 1, 1),
]


@pytest.mark.parametrize("k", NON_COMPOSITIONS)
def test_class_of_and_tau1_refuse_non_compositions(tables, k):
    table = tables("B", 2)
    with pytest.raises(DomainError, match="not a composition of 2 into 4 parts"):
        table.class_of(k)
    with pytest.raises(DomainError, match="not a composition of 2 into 4 parts"):
        table.tau1(k, 1)


@given(
    case=st.sampled_from([("A", 5), ("B", 2), ("B", 3), ("C", 3)]),
    k=st.lists(st.integers(min_value=-2, max_value=5), max_size=5),
    to_n=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_class_of_is_the_exact_sum_or_refused(tables, case, k, to_n):
    name, n = case
    table = tables(name, n)
    model = table.model
    if to_n and k:  # sum to n, so only a length or a negative entry is wrong
        k[-1] = n - sum(k[:-1])
    try:
        t = table.class_of(k)
    except DomainError:
        assert len(k) != model.m or min(k) < 0 or sum(k) != n
        return
    assert table.values[t] == sum(
        (ks * o for ks, o in zip(k, model.outcomes)), model.zero()
    )


def test_tau1_partition_property(tables):
    table = tables("B", 2)
    for k in enumerate_compositions(2, 4):
        assert sum(table.tau1(k, t) for t in range(table.T + 1)) == 1


def test_cdf(tables):
    table = tables("B", 2)
    assert table.cdf(3, "lt") == Fraction(6, 16)
    assert table.cdf(3, "leq") == Fraction(10, 16)
    assert table.cdf(0, "lt") == 0
    assert table.cdf(table.T, "leq") == 1
    with pytest.raises(DomainError):
        table.cdf(0, "nonsense")


def test_scaling_preserves_classes(model_c):
    from quantperm import ExactScalar, build_manual

    scale = ExactScalar(2, 1, 2)  # 2 + sqrt(2) > 0
    scaled = build_manual(
        model_c.M,
        [
            (model_c.pattern_of(s), model_c.outcome(s) * scale)
            for s in range(1, model_c.m + 1)
        ],
        strict=False,
    )
    t1 = build_value_table(model_c, 2)
    t2 = build_value_table(scaled, 2)
    assert t1.members == t2.members
    assert t1.gammas == t2.gammas


def test_build_validation(model_a):
    with pytest.raises(DomainError):
        build_value_table(model_a, 0)
    with pytest.raises(DomainError):
        build_value_table(model_a, -3)


def test_width_budget(model_a, model_b, time_limit):
    # every table integer is below m^n = 2^width, so MAX_WIDTH bounds them
    assert MAX_WIDTH == 1024
    table = build_value_table(model_a, MAX_WIDTH)
    assert table.width == MAX_WIDTH and table.smc[-1] == 2**MAX_WIDTH
    for model, n in ((model_a, MAX_WIDTH + 1), (model_b, MAX_WIDTH // 2 + 1)):
        with time_limit(1), pytest.raises(DomainError, match="MAX_WIDTH"):
            build_value_table(model, n)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_leaves_gc_state(model_b, enabled):
    saved = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        build_value_table(model_b, 3)
        assert gc.isenabled() == enabled
        with pytest.raises(DomainError):
            build_value_table(model_b, MAX_WIDTH)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if saved else gc.disable()


@given(n=st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_class_membership_is_partition(tables, n):
    table = tables("A", n)
    seen = set()
    for t, ks in enumerate(table.members):
        for k in ks:
            assert k not in seen
            seen.add(k)
    assert len(seen) == composition_count(n, 2)
