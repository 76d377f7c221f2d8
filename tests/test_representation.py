"""Representations: decode arrays, their invariants, both conversion
directions, and the normal-comparison demo.

Row sums are cross-checked the expensive way (actually summing exact
outcome values per row) on the small tables, so the class-map shortcut
used by the checker is itself under test.
"""

import math

import mpmath
import pytest

from quantperm import (
    AdmissiblePermutation,
    DomainError,
    ExactScalar,
    build_manual,
    build_value_table,
    builtin_model,
    canonical_permutation,
    clt_table,
    decode_weight_index,
    is_star,
    normal_cdf,
    perm_from_representation,
    random_admissible,
    representation_from_perm,
)
from quantperm.representation import representation_failure


def test_representation_of_f_a2(tables):
    table = tables("A", 2)
    rep = representation_from_perm(table, canonical_permutation(table))
    assert rep.rows == ((1, 1), (2, 1), (1, 2), (2, 2))
    assert rep.entry(1, 0) == 1
    assert rep.entry(2, 1) == 1
    with pytest.raises(DomainError):
        rep.entry(3, 0)
    with pytest.raises(DomainError):
        rep.entry(1, 4)


def test_invariants_hold_for_f(tables):
    for name, n in (("A", 4), ("B", 2), ("C", 2), ("B", 3)):
        table = tables(name, n)
        rep = representation_from_perm(table, canonical_permutation(table))
        assert representation_failure(table, rep) is None


def test_row_sums_exactly(tables):
    for name, n in (("A", 3), ("B", 2), ("C", 2)):
        table = tables(name, n)
        model = table.model
        rep = representation_from_perm(table, canonical_permutation(table))
        for ell in range(table.num_indices):
            total = model.zero()
            for s in rep.row(ell):
                total = total + model.outcome(s)
            assert total == is_star(table, ell), (name, n, ell)


def test_marginals_and_bijection(tables):
    table = tables("B", 2)
    rep = representation_from_perm(table, random_admissible(table, 9))
    want = table.num_indices // table.model.m
    for i in range(1, table.n + 1):
        for s in range(1, table.model.m + 1):
            hits = sum(1 for ell in range(len(rep)) if rep.entry(i, ell) == s)
            assert hits == want
    assert len(set(rep.rows)) == table.num_indices


def test_invariants_hold_for_random_perms(tables):
    for name, n in (("A", 4), ("B", 2), ("C", 2)):
        table = tables(name, n)
        for seed in range(5):
            perm = random_admissible(table, seed)
            rep = representation_from_perm(table, perm)
            assert representation_failure(table, rep) is None


def test_round_trip_both_directions(tables):
    table = tables("B", 2)
    for seed in range(8):
        perm = random_admissible(table, seed)
        rep = representation_from_perm(table, perm)
        back = perm_from_representation(table, rep)
        assert back.mapping == perm.mapping
        assert back.block_perms == perm.block_perms
        again = representation_from_perm(table, back)
        assert again == rep


def test_rejects_inadmissible_perm(tables):
    table = tables("A", 2)
    with pytest.raises(DomainError):
        representation_from_perm(table, [0, 1, 2, 3])


def test_rejects_duplicate_rows(tables):
    table = tables("A", 2)
    rep = AdmissiblePermutation.from_rows(table, [(1, 1), (2, 1), (2, 1), (2, 2)])
    with pytest.raises(DomainError):
        perm_from_representation(table, rep)
    assert representation_failure(table, rep) is not None


def test_failure_reasons(tables):
    table = tables("A", 2)
    good = representation_from_perm(table, canonical_permutation(table))
    # swapping rows across classes breaks the row sums
    rows = list(good.rows)
    rows[0], rows[1] = rows[1], rows[0]
    bad = AdmissiblePermutation.from_rows(table, rows)
    reason = representation_failure(table, bad)
    assert reason is not None and "row sum" in reason
    assert representation_failure(table, bad) is not None
    short = AdmissiblePermutation.from_rows(table, rows[:2])
    assert "expected" in representation_failure(table, short)
    with pytest.raises(DomainError, match="out of range"):
        short.row(2)
    # malformed rows are refused at construction: too short ((1,) packed
    # chunk by chunk would be the level of (2, 1)), too long, a rank out
    # of range, non-rank entries
    for bad_row in ((1,), (2, 1, 1), (0, 1), (1, "x"), (1, [2])):
        rows = list(good.rows)
        rows[1] = bad_row
        with pytest.raises(DomainError, match="row 1 is"):
            AdmissiblePermutation.from_rows(table, rows)


def test_stored_as_level_mapping():
    # a fresh table: the shared fixture's tables may hold other caches
    table = build_value_table(builtin_model("A"), 10)
    perm = canonical_permutation(table)
    rep = representation_from_perm(table, perm)
    assert representation_failure(table, rep) is None
    assert rep.mapping == perm.mapping
    assert "decoded_vectors" not in table._cache
    for ell in (0, 1, 511, 1023):
        assert rep.row(ell) == decode_weight_index(table.model, 10, perm(ell))
    assert AdmissiblePermutation.from_rows(table, rep.rows) == rep


def test_rows_round_trip_through_from_rows(tables):
    # one class for both objects: encoding a permutation's rows gives it
    # back, and its rows and entries decode its levels
    for name, n in (("A", 4), ("B", 2), ("C", 2)):
        table = tables(name, n)
        perms = [canonical_permutation(table)]
        perms += [random_admissible(table, seed) for seed in range(3)]
        for perm in perms:
            assert AdmissiblePermutation.from_rows(table, perm.rows) == perm
            for ell in range(table.num_indices):
                want = decode_weight_index(table.model, n, perm(ell))
                assert perm.row(ell) == want, (name, n, ell)
                assert [perm.entry(i, ell) for i in range(1, n + 1)] == list(want)


def test_normal_cdf_against_high_precision():
    with mpmath.workprec(80):
        for z in (0.0, 0.5, -0.5, 1.0, -1.0, 1.96, -1.96, 3.0, -3.0, 5.0):
            want = float(mpmath.ncdf(z))
            assert abs(normal_cdf(z) - want) < 1e-15, z


def test_clt_a4_sup_distance(tables):
    table = tables("A", 4)
    result = clt_table(table)
    # largest deviation sits at the median step: 11/16 vs Phi(0) = 1/2
    assert result.sup_distance == pytest.approx(0.1875, abs=1e-6)
    zs = [row.z for row in result.rows]
    assert zs == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert result.rows[2].empirical == pytest.approx(11 / 16)
    assert result.theta == pytest.approx(1.0)


def test_clt_sup_shrinks(tables):
    sup4 = clt_table(tables("A", 4)).sup_distance
    sup16 = clt_table(tables("A", 16)).sup_distance
    assert sup16 < sup4
    b2 = clt_table(tables("B", 2))
    assert b2.theta == pytest.approx(math.sqrt(5))
    assert b2.rows[3].z == pytest.approx(0.0)


def test_clt_grid_subsample(tables):
    table = tables("A", 16)
    result = clt_table(table, grid_size=7)
    assert len(result.rows) == 7
    full = clt_table(table)
    assert result.sup_distance == full.sup_distance


def test_clt_grid_must_be_a_positive_int(tables):
    table = tables("A", 4)
    for grid in (0, -3, 1.5):
        with pytest.raises(DomainError, match="grid size"):
            clt_table(table, grid_size=grid)
    assert len(clt_table(table, grid_size=1).rows) == 1


def test_clt_centering_for_shifted_model():
    model = build_manual(
        0, [((1,), ExactScalar(0)), ((0,), ExactScalar(2))], strict=False
    )
    table = build_value_table(model, 4)
    result = clt_table(table)
    # mean 1, variance 1: same standardized lattice as the sign model
    ref = clt_table(build_value_table(build_manual(
        0, [((1,), ExactScalar(-1)), ((0,), ExactScalar(1))]
    ), 4))
    assert [r.z for r in result.rows] == pytest.approx([r.z for r in ref.rows])
    assert result.sup_distance == pytest.approx(ref.sup_distance)
