"""Representations: decode arrays, their invariants, both conversion
directions, and the normal-comparison demo.

Row sums are cross-checked the expensive way (actually summing exact
outcome values per row) on the small tables, so the class-map shortcut
used by the checker is itself under test.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from quantperm import (
    DomainError,
    ExactScalar,
    Representation,
    build_manual,
    build_value_table,
    canonical_permutation,
    clt_table,
    is_star,
    normal_cdf,
    perm_from_representation,
    random_admissible,
    representation_from_perm,
    verify_representation,
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
        assert verify_representation(table, rep)


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
            assert verify_representation(table, rep)


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
    rep = Representation(table, [(1, 1), (2, 1), (2, 1), (2, 2)])
    with pytest.raises(DomainError):
        perm_from_representation(table, rep)
    assert representation_failure(table, rep) is not None


def test_failure_reasons(tables):
    table = tables("A", 2)
    good = representation_from_perm(table, canonical_permutation(table))
    # swapping rows across classes breaks the row sums
    rows = list(good.rows)
    rows[0], rows[1] = rows[1], rows[0]
    bad = Representation(table, rows)
    reason = representation_failure(table, bad)
    assert reason is not None and "row sum" in reason
    assert not verify_representation(table, bad)
    short = Representation(table, rows[:2])
    assert "expected" in representation_failure(table, short)
    # malformed rows: too short ((1,) packed chunk by chunk is the level
    # of (2, 1)), too long, a rank out of range, non-rank entries
    for bad_row in ((1,), (2, 1, 1), (0, 1), (1, "x"), (1, [2])):
        rows = list(good.rows)
        rows[1] = bad_row
        bad = Representation(table, rows)
        for thorough in (False, True):
            assert representation_failure(table, bad, thorough) is not None
        with pytest.raises(DomainError):
            perm_from_representation(table, bad)


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
