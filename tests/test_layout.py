"""Triangular-array geometry and bit-string evaluation.

The row-partition oracle builds the array the obvious way (append rows
of the stated lengths one after another) and compares every derived
accessor against it.
"""

import random

import pytest

from quantperm import (
    BitString,
    DomainError,
    LayoutModel,
    eval_partial_sum,
    is_n,
    weight_index_of_bits,
)
from quantperm.multinomial import MAX_WIDTH


def test_jbar_m1_examples():
    lay = LayoutModel(1)
    assert lay.jbar_set(1) == (1, 2)
    assert lay.jbar_set(2) == (4, 6)
    assert lay.jbar_set(3) == (9, 12)
    assert lay.jbar_union(3) == (1, 2, 4, 6, 9, 12)


def test_jbar_m0_triangular_numbers():
    lay = LayoutModel(0)
    for i in range(1, 30):
        assert lay.jbar_set(i) == (i * (i + 1) // 2,)


def test_row_lengths():
    lay = LayoutModel(1)
    assert [lay.row_length(r) for r in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    assert lay.row_length(5) == 3
    lay0 = LayoutModel(0)
    assert [lay0.row_length(r) for r in range(1, 6)] == [1, 2, 3, 4, 5]


def test_rows_partition_the_integers():
    for M in range(4):
        lay = LayoutModel(M)
        next_start = 1
        for rho in range(1, 12 * (M + 1) + 1):
            entries = lay.row_entries(rho)
            assert entries[0] == next_start  # consecutive, no gaps
            assert len(entries) == lay.row_length(rho)
            next_start = entries[-1] + 1


def test_entry_decompose_round_trip():
    for M in (0, 1, 2):
        lay = LayoutModel(M)
        for b in range(1, 13):
            for r in range(1, M + 2):
                for i in range(1, b + 1):
                    eta = lay.entry(b, r, i)
                    assert lay.decompose(eta) == (b, r, i)
        for eta in range(1, 400):
            b, r, i = lay.decompose(eta)
            assert lay.entry(b, r, i) == eta


def test_jbar_is_diagonal_of_own_block():
    for M in (0, 1, 3):
        lay = LayoutModel(M)
        for i in range(1, 20):
            for r in range(1, M + 2):
                assert lay.jbar(i, r) == lay.entry(i, r, i)


def test_jbar_sets_are_consecutive():
    for M in range(5):
        lay = LayoutModel(M)
        for i in range(1, 50):
            assert max(lay.jbar_set(i)) < min(lay.jbar_set(i + 1))


def test_jbar_union_stops_at_max_width():
    # jbar_union builds a tuple of n(M+1) coordinates, so past MAX_WIDTH
    # it is refused as a level that wide is; and a depth M with
    # M + 1 > MAX_WIDTH has no level at all
    for M in (0, 1, 2):
        lay = LayoutModel(M)
        top = MAX_WIDTH // (M + 1)
        assert len(lay.jbar_union(top)) == top * (M + 1)
        for n in (top + 1, 2**70):
            with pytest.raises(DomainError, match="MAX_WIDTH"):
                lay.jbar_union(n)
    assert LayoutModel(MAX_WIDTH - 1).jbar_set(1)[-1] == MAX_WIDTH
    with pytest.raises(DomainError, match="M must be"):
        LayoutModel(MAX_WIDTH)


def test_layout_validation():
    with pytest.raises(DomainError):
        LayoutModel(-1)
    lay = LayoutModel(1)
    with pytest.raises(DomainError):
        lay.row_length(0)
    with pytest.raises(DomainError):
        lay.entry(2, 3, 1)  # r > M+1
    with pytest.raises(DomainError):
        lay.entry(2, 1, 3)  # i > b
    with pytest.raises(DomainError):
        lay.decompose(0)
    with pytest.raises(DomainError):
        lay.jbar(1, 0)


def test_bitstring():
    x = BitString([1, 0, 1])
    assert x.depth == 3
    assert (x.bit(1), x.bit(2), x.bit(3)) == (1, 0, 1)
    with pytest.raises(DomainError):
        x.bit(4)
    with pytest.raises(DomainError):
        x.bit(0)
    with pytest.raises(DomainError):
        BitString([0, 2, 1])


def test_weight_index_of_bits_example(model_b, tables):
    lay = LayoutModel(1)
    #  coords:   1  2  3  4  5  6
    x = BitString([1, 0, 0, 1, 0, 1])
    # digits at Jbar^2 = (1,2,4,6) are 1,0,1,1 -> ell = 0b1011 = 11
    assert weight_index_of_bits(lay, x, 2) == 11
    table = tables("B", 2)
    # chunk 1 pattern (1,0) -> -1, chunk 2 pattern (1,1) -> -3
    assert eval_partial_sum(model_b, lay, x, 2) == -4
    assert eval_partial_sum(model_b, lay, x, 2) == is_n(table, 11)


def test_eval_matches_decoded_value(tables):
    rng = random.Random(3)
    for name, n in (("B", 3), ("C", 3), ("A", 6)):
        table = tables(name, n)
        model = table.model
        lay = LayoutModel(model.M)
        depth = max(lay.jbar_union(n))
        for _ in range(25):
            x = BitString([rng.randint(0, 1) for _ in range(depth)])
            ell = weight_index_of_bits(lay, x, n)
            assert eval_partial_sum(model, lay, x, n) == is_n(table, ell)


def test_eval_insufficient_depth(model_b):
    lay = LayoutModel(1)
    x = BitString([1, 0, 0, 1])  # need bit 6 for n=2
    with pytest.raises(DomainError):
        eval_partial_sum(model_b, lay, x, 2)
    with pytest.raises(DomainError):
        weight_index_of_bits(lay, x, 2)


def test_short_bits_fail_at_the_first_missing_digit(model_a, model_b, time_limit):
    # each digit is read as its coordinate of Jbar^n is made, so a short x
    # is refused at its first missing digit however large n is
    x = BitString([1, 0, 1])
    with time_limit(1):
        for model in (model_a, model_b):
            lay = LayoutModel(model.M)
            with pytest.raises(DomainError, match="insufficient depth"):
                weight_index_of_bits(lay, x, 10**12)
            with pytest.raises(DomainError, match="insufficient depth"):
                eval_partial_sum(model, lay, x, 10**12)


def test_eval_model_layout_mismatch(model_b):
    lay = LayoutModel(0)
    x = BitString([1])
    with pytest.raises(DomainError):
        eval_partial_sum(model_b, lay, x, 1)
