"""Admissible permutations: the canonical F, assembly from blocks,
verification, counting and seeded sampling.

Frozen F tables come from listing the weight classes by hand:
A, n=2:  IB = {3}, {1,2}, {0}            -> F = [3, 1, 2, 0]
B, n=2:  IB_1 = {11,14}, IB_3 = {3,6,9,12}, ... -> F as below.
"""

import hashlib
import math
import random
from array import array
from pathlib import Path

import pytest

import quantperm
from quantperm import (
    AdmissiblePermutation,
    DomainError,
    build_value_table,
    builtin_model,
    canonical_permutation,
    count_admissible,
    f_perm,
    gamma_relation,
    inv_f,
    istep,
    iweight,
    load_model,
    make_admissible,
    random_admissible,
)
from quantperm.indexing import EXPLICIT_WIDTH_LIMIT
from quantperm.permutations import _canonical_inverse, admissibility_failure, blocks_of
from quantperm.representation import (
    perm_from_representation,
    representation_failure,
    representation_from_perm,
)

F2_A = [3, 1, 2, 0]
F2_B = [15, 11, 14, 7, 10, 13, 3, 6, 9, 12, 2, 5, 8, 1, 4, 0]


def test_f_frozen_tables(tables):
    ta = tables("A", 2)
    assert [f_perm(ta, ell) for ell in range(4)] == F2_A
    tb = tables("B", 2)
    assert [f_perm(tb, ell) for ell in range(16)] == F2_B


HAAR_M2 = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "haar_m2.json"


def test_f_lazy_matches_explicit(tables):
    # A n = 1 has an empty high half, odd n splits the chunks unevenly,
    # and haar_m2 has M = 2
    inputs = [tables(name, n) for name, n in (("A", 1), ("A", 4), ("A", 5), ("B", 2),
                                              ("B", 3), ("C", 2), ("C", 3))]
    inputs.append(build_value_table(load_model(str(HAAR_M2)), 2))
    for table in inputs:
        perm = canonical_permutation(table)
        assert [f_perm(table, ell) for ell in range(table.num_indices)] == list(
            perm.mapping
        )
        assert admissibility_failure(table, perm) is None


def test_f_admissible_and_invertible(tables):
    for name, n in (("A", 5), ("B", 2), ("C", 2), ("B", 3)):
        table = tables(name, n)
        for ell in range(table.num_indices):
            ellp = f_perm(table, ell)
            assert iweight(table, ellp) == istep(table, ell)
            assert inv_f(table, ellp) == ell
        for ellp in range(table.num_indices):
            assert f_perm(table, inv_f(table, ellp)) == ellp


def test_inverse_mapping(tables):
    table = tables("B", 2)
    inv = list(_canonical_inverse(table))
    assert inv == [inv_f(table, ellp) for ellp in range(16)]


def test_gamma_relation_examples(tables):
    ta = tables("A", 2)
    assert gamma_relation(ta, 0, 3)
    assert not gamma_relation(ta, 0, 1)
    tb = tables("B", 2)
    assert gamma_relation(tb, 1, 11)
    assert not gamma_relation(tb, 1, 14)  # beta=2, chi=1, alpha=1
    assert not gamma_relation(tb, 1, 10)  # beta*chi=0


def test_gamma_relation_unique_solution(tables):
    for name, n in (("A", 3), ("B", 2)):
        table = tables(name, n)
        for ell in range(table.num_indices):
            hits = [
                ellp
                for ellp in range(table.num_indices)
                if gamma_relation(table, ell, ellp)
            ]
            assert hits == [f_perm(table, ell)], (name, n, ell)


def test_make_admissible_identity_blocks_is_f(tables):
    table = tables("B", 2)
    perm = make_admissible(table, [list(range(1, g + 1)) for g in table.gammas])
    assert list(perm.mapping) == F2_B


def test_make_admissible_swap_block(tables):
    table = tables("B", 2)
    blocks = [list(range(1, g + 1)) for g in table.gammas]
    blocks[1] = [2, 1]
    perm = make_admissible(table, blocks)
    want = list(F2_B)
    want[1], want[2] = 14, 11
    assert list(perm.mapping) == want
    assert admissibility_failure(table, perm) is None


def test_make_admissible_validation(tables):
    table = tables("A", 2)
    with pytest.raises(DomainError):
        make_admissible(table, [[1], [1, 2]])  # wrong block count
    with pytest.raises(DomainError):
        make_admissible(table, [[1], [1, 1], [1]])  # not a permutation
    with pytest.raises(DomainError):
        make_admissible(table, [[1], [1, 3], [1]])  # out of range
    with pytest.raises(DomainError):
        make_admissible(table, [[1], ["a", 1], [1]])  # not a rank
    with pytest.raises(DomainError):
        make_admissible(table, [[1], [1.0, 2], [1]])  # not an int rank
    with pytest.raises(DomainError):
        make_admissible(table, [[1], None, [1]])  # not a block
    with pytest.raises(DomainError):
        make_admissible(table, None)  # not a list of blocks


def test_blocks_round_trip(tables):
    table = tables("B", 2)
    rng = random.Random(11)
    for _ in range(20):
        blocks = []
        for g in table.gammas:
            b = list(range(1, g + 1))
            rng.shuffle(b)
            blocks.append(tuple(b))
        perm = make_admissible(table, blocks)
        assert blocks_of(table, perm.mapping) == blocks
        assert perm.block_perms == tuple(blocks)


def test_verify_rejects_bad_permutations(tables):
    ta1 = tables("A", 1)
    assert admissibility_failure(ta1, [1, 0]) is None
    assert admissibility_failure(ta1, [0, 1]) is not None  # identity mixes classes
    table = tables("B", 2)
    good = list(F2_B)
    assert admissibility_failure(table, good) is None
    bad = list(F2_B)
    bad[0], bad[1] = bad[1], bad[0]  # cross-class swap
    assert "class mismatch" in admissibility_failure(table, bad)
    assert "bijection" in admissibility_failure(table, [0] * 16)
    assert "expected" in admissibility_failure(table, [0, 1])
    assert "out of range" in admissibility_failure(table, [99] * 16)


def test_range_and_bijection_faults_outrank_an_earlier_class_mismatch(tables):
    # one pass over the levels: the first class mismatch is reported only
    # when no image anywhere is out of range or repeated
    table = tables("B", 2)
    swapped = list(F2_B)
    swapped[0], swapped[1] = swapped[1], swapped[0]  # class mismatch at ell = 0
    assert admissibility_failure(table, swapped) == (
        "class mismatch at ell=0: row sum of pi(ell) is in class 1, expected istep=0"
    )
    repeated = swapped[:15] + [swapped[14]]
    assert admissibility_failure(table, repeated) == (
        "not a bijection: 4 hit twice (second time at ell=15)"
    )
    beyond = swapped[:15] + [16]
    assert admissibility_failure(table, beyond) == "pi(15) = 16 is out of range [0, 16)"


def test_count_examples(tables):
    assert count_admissible(tables("A", 2)) == 2
    assert count_admissible(tables("B", 2)) == 3456
    assert count_admissible(tables("A", 1)) == 1
    assert count_admissible(tables("B", 1)) == 1
    assert count_admissible(tables("A", 3)) == 36
    # M=0 closed form: prod C(n,t)!
    table = tables("A", 5)
    assert count_admissible(table) == math.prod(
        math.factorial(math.comb(5, t)) for t in range(6)
    )


def test_random_admissible_deterministic(tables):
    table = tables("B", 2)
    p1 = random_admissible(table, 42)
    p2 = random_admissible(table, 42)
    assert p1.mapping == p2.mapping
    assert admissibility_failure(table, p1) is None
    assert any(
        random_admissible(table, seed).mapping != p1.mapping for seed in range(5)
    )


# SHA-256 of repr((tuple(mapping), block_perms)) for every seed 0-19 on A n <= 16,
# B n <= 5 and C n = 3, taken from the sampler that shuffled each class's
# rank list 1..gamma_t and assembled the blocks with make_admissible
RANDOM_DIGEST = "143990d377c10b6c76ae73bfdedcbf65abfc7eff1f2d48052f8762352746100b"


def test_random_admissible_digest_pinned(tables):
    h = hashlib.sha256()
    for name, ns in (("A", range(1, 17)), ("B", range(1, 6)), ("C", (3,))):
        for n in ns:
            table = tables(name, n)
            for seed in range(20):
                perm = random_admissible(table, seed)
                h.update(repr((tuple(perm.mapping), perm.block_perms)).encode())
    assert h.hexdigest() == RANDOM_DIGEST


def test_explicit_layer_keeps_only_the_mapping(model_b):
    # F_n's mapping is the one explicit permutation structure: no class
    # lists or step classes are cached, and no permutation stores its ranks
    table = build_value_table(model_b, 3)
    canon = canonical_permutation(table)
    assert admissibility_failure(table, canon) is None
    rand = random_admissible(table, 3)
    back = perm_from_representation(table, representation_from_perm(table, rand))
    assert back == rand
    for key in ("weight_class_lists", "step_classes", "weight_classes"):
        assert key not in table._cache
    checkpoints = {key for key in table._cache if isinstance(key, tuple) and key[0] == "rank"}
    assert set(table._cache) - checkpoints == {"canonical_mapping"}
    for perm in (canon, rand, back):
        assert "block_perms" not in vars(perm)


def test_random_admissible_trivial_space(tables):
    table = tables("A", 1)
    for seed in range(10):
        assert random_admissible(table, seed).mapping.tolist() == [1, 0]


def test_random_admissible_uniform_on_a2(tables):
    # the only freedom at n=2, M=0 is swapping the two middle levels
    table = tables("A", 2)
    swapped = 0
    trials = 10_000
    for seed in range(trials):
        perm = random_admissible(table, seed)
        assert admissibility_failure(table, perm) is None
        if perm.block_perms[1] == (2, 1):
            swapped += 1
    assert abs(swapped / trials - 0.5) < 0.05


def test_explicit_width_limit(model_a):
    table = build_value_table(model_a, 25)
    with pytest.raises(DomainError):
        canonical_permutation(table)
    with pytest.raises(DomainError):
        random_admissible(table, 0)
    # the lazy form still works at this width
    assert f_perm(table, 0) == 2**25 - 1
    assert inv_f(table, 2**25 - 1) == 0


@pytest.mark.parametrize(
    "mapping", [[0, -1, 2, 3], [0, 2**32, 1, 2], [0, "a", 1, 2], None]
)
def test_mapping_entries_are_unsigned_32_bit_ints(tables, mapping):
    with pytest.raises(DomainError):
        AdmissiblePermutation(tables("A", 2), mapping)


def test_bytes_are_a_mapping_of_their_elements(tables):
    # not four raw bytes of one machine word
    table = tables("A", 2)
    perm = representation_from_perm(table, bytes(F2_A))
    assert perm.mapping.tolist() == F2_A
    assert blocks_of(table, bytearray(F2_A)) == [(1,), (1, 2), (1,)]


@pytest.mark.parametrize(
    "check",
    [
        admissibility_failure,
        blocks_of,
        representation_from_perm,
        perm_from_representation,
        representation_failure,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "name, n, mapping",
    [
        ("A", 2, None),
        ("A", 2, 5),
        ("A", 2, [3, -1, 2, 0]),
        ("A", 2, [3, "x", 2, 0]),
        ("B", 32, [0, 1]),  # width 64, past EXPLICIT_WIDTH_LIMIT
    ],
    ids=["none", "int", "negative", "str", "too-wide"],
)
def test_every_permutation_taker_refuses_a_non_mapping(tables, check, name, n, mapping):
    # every function that takes a permutation coerces it to an
    # AdmissiblePermutation first, whose constructor refuses these
    with pytest.raises(DomainError):
        check(tables(name, n), mapping)


def test_a_permutation_of_another_table_is_rewrapped(tables):
    # a permutation is checked and returned as one of the table it is
    # given with, whatever table it was built on
    with pytest.raises(DomainError):  # width 64, past EXPLICIT_WIDTH_LIMIT
        admissibility_failure(tables("B", 32), canonical_permutation(tables("A", 2)))
    b1 = tables("B", 1)
    foreign = AdmissiblePermutation(tables("A", 2), canonical_permutation(b1).mapping)
    rep = representation_from_perm(b1, foreign)
    assert rep.table is b1
    assert rep.rows == ((1,), (2,), (3,), (4,))


def test_canonical_mapping_is_one_read_only_array():
    # a fresh table: the cached F_n is shared by every caller, so it must
    # refuse writes
    table = build_value_table(builtin_model("A"), 4)
    first, second = canonical_permutation(table), canonical_permutation(table)
    assert first.mapping is second.mapping
    assert first.mapping.format == "I"
    with pytest.raises(TypeError):
        first.mapping[0] = 1
    # every level of the widest explicit table fits one array entry
    assert array("I").itemsize * 8 >= EXPLICIT_WIDTH_LIMIT


def test_package_names_resolve():
    for name in quantperm.__all__:
        assert hasattr(quantperm, name), name
