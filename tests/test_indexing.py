"""Decode, class maps, alpha/beta, the prefix walk and rank/unrank.

beta_bruteforce is the oracle: it literally counts matching levels.
Every fast-path value is compared against it exhaustively on small
tables and by sampling on larger ones; frozen spot values were worked
out by hand from the class lists.
"""

import hashlib
import random
from bisect import bisect_right
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantperm import (
    AdmissiblePermutation,
    BitString,
    DomainError,
    ExactScalar,
    LayoutModel,
    alpha,
    beta_bruteforce,
    beta_fast,
    beta_fast_trace,
    bench_scaling,
    build_manual,
    build_value_table,
    builtin_model,
    clt_table,
    decode_weight_index,
    encode_weight_index,
    enum_a,
    enum_b,
    enumerate_compositions,
    eval_partial_sum,
    f_perm,
    fit_loglog_slope,
    gamma_relation,
    inv_f,
    is_n,
    is_star,
    istep,
    iweight,
    load_model,
    make_admissible,
    model_from_json,
    multinomial_coefficient,
    normal_cdf,
    parse_scalar,
    random_admissible,
    ria,
    rib,
    selftest,
    tau2,
    weight_index_of_bits,
)
from quantperm import indexing
from quantperm.indexing import _forget_path, decoded_vectors, step_classes, weight_classes
from quantperm.multinomial import composition_count
from quantperm.permutations import canonical_permutation


def test_decode_examples(model_a, model_b):
    assert decode_weight_index(model_b, 2, 0) == (4, 4)
    assert decode_weight_index(model_b, 2, 0b0110) == (3, 2)
    assert decode_weight_index(model_b, 2, 15) == (1, 1)
    assert decode_weight_index(model_a, 3, 0b101) == (1, 2, 1)
    assert decode_weight_index(model_a, 1, 1) == (1,)
    with pytest.raises(DomainError):
        decode_weight_index(model_a, 2, 4)


def test_decode_is_lexicographic(model_b):
    seqs = [decode_weight_index(model_b, 2, ell) for ell in range(16)]
    # increasing ell = lexicographic order on chunk values, which maps to
    # outcome ranks through the chunk table; ranks themselves are ordered
    # by their chunks here because B's patterns reverse the rank order
    chunks = [
        tuple(model_b.chunk_of_index(s) for s in seq) for seq in seqs
    ]
    assert chunks == sorted(chunks)


def test_encode_round_trip(model_b, model_c):
    for model in (model_b, model_c):
        for ell in range(model.m**2):
            assert encode_weight_index(model, decode_weight_index(model, 2, ell)) == ell


def test_iweight_istep_examples(tables):
    tb = tables("B", 2)
    assert iweight(tb, 11) == 1
    assert iweight(tb, 0) == 6
    assert iweight(tb, 15) == 0
    assert istep(tb, 0) == 0
    assert istep(tb, 1) == 1
    assert istep(tb, 2) == 1
    assert istep(tb, 3) == 2
    assert istep(tb, 15) == 6
    ta = tables("A", 2)
    assert [istep(ta, ell) for ell in range(4)] == [0, 1, 1, 2]
    assert [iweight(ta, ell) for ell in range(4)] == [2, 1, 1, 0]


@pytest.mark.parametrize("name, n", [("A", 64), ("B", 32), ("C", 12)])
def test_iweight_is_the_class_of_the_decoded_sum(tables, name, n):
    # C is irrational, so its lattice codes carry a nonzero radical part
    table = tables(name, n)
    model = table.model
    rng = random.Random(n)
    for _ in range(1000):
        ell = rng.randrange(table.num_indices)
        svec = decode_weight_index(model, n, ell)
        total = sum((model.outcome(s) for s in svec), model.zero())
        assert table.values[iweight(table, ell)] == total, (name, ell)


def _iweight_by_chunks(table, ell):
    """iweight as the sum of the level's n chunk codes, one chunk at a
    time: the reference for the bit-plane sum."""
    mask = table.model.m - 1
    shifts = range(0, table.width, table.model.M + 1)
    return table._class_by_code[sum(table.chunk_codes[(ell >> k) & mask] for k in shifts)]


def test_iweight_from_bit_planes_is_the_chunk_sum(tables):
    # haar_m2 has M = 2, a three-bit transform with four plane ANDs:
    # every level to n = 3; then seeded levels of the widest A, a wide B
    # and the widest haar_m2 that counts by chunk code
    haar = load_model(str(HAAR_M2))
    for n in (1, 2, 3):
        table = build_value_table(haar, n)
        for ell in range(table.num_indices):
            assert iweight(table, ell) == _iweight_by_chunks(table, ell), (n, ell)
    for table in (tables("A", 1024), tables("B", 128), build_value_table(haar, 11)):
        rng = random.Random(table.width)
        for _ in range(2000):
            ell = rng.randrange(table.num_indices)
            assert iweight(table, ell) == _iweight_by_chunks(table, ell), (table, ell)


def test_smc_is_least_level_of_class(tables):
    for name, n in (("A", 4), ("B", 2), ("C", 2)):
        table = tables(name, n)
        for t in range(table.T + 1):
            first = table.smc[t]
            assert istep(table, first) == t
            if first > 0:
                assert istep(table, first - 1) == t - 1


def test_is_star_is_sorted_rearrangement(tables):
    for name, n in (("A", 3), ("B", 2), ("C", 2)):
        table = tables(name, n)
        star = [is_star(table, ell) for ell in range(table.num_indices)]
        raw = [is_n(table, ell) for ell in range(table.num_indices)]
        assert star == sorted(raw)
        for x, y in zip(star, star[1:]):
            assert x <= y


def test_tau2(model_b):
    assert tau2(model_b, 2, 4, 0, 0) == 2
    assert tau2(model_b, 2, 4, 0, 1) == 1
    assert tau2(model_b, 2, 4, 0, 2) == 0
    assert tau2(model_b, 2, 1, 0, 0) == 0
    assert tau2(model_b, 2, 2, 0b1011, 0) == 1
    with pytest.raises(DomainError):
        tau2(model_b, 2, 5, 0, 0)
    with pytest.raises(DomainError):
        tau2(model_b, 2, 1, 0, 3)


@pytest.mark.parametrize("n", [15_000, 10**6])
def test_out_of_range_level_at_large_n_is_a_domain_error(model_a, model_b, n, time_limit):
    # from n = 14,285 on A the bound 2^(n(M+1)) has more decimal digits
    # than str() prints, and so has any level past it
    with time_limit(1):
        for model in (model_a, model_b):
            width = n * (model.M + 1)
            for ell in (-1, 1 << width, 3 << width):
                with pytest.raises(DomainError, match="level index"):
                    decode_weight_index(model, n, ell)
                with pytest.raises(DomainError, match="level index"):
                    tau2(model, n, 1, ell, 0)


# every rank, chunk, bound, bit, size and layout offset given as a
# non-int, with B at n = 2
NON_INT_CALLS = {
    "outcome-float": lambda model, perm: model.outcome(1.5),
    "outcome-none": lambda model, perm: model.outcome(None),
    "pattern_of": lambda model, perm: model.pattern_of(2.0),
    "chunk_of_index": lambda model, perm: model.chunk_of_index(1.5),
    "index_of_chunk-float": lambda model, perm: model.index_of_chunk(1.5),
    "index_of_chunk-none": lambda model, perm: model.index_of_chunk(None),
    "tau2-b": lambda model, perm: tau2(model, 2, 1, 0, 1.5),
    "tau2-s": lambda model, perm: tau2(model, 2, 1.5, 0, 0),
    "encode": lambda model, perm: encode_weight_index(model, [1.5, 1]),
    "entry": lambda model, perm: perm.entry(1.5, 0),
    "bits-float": lambda model, perm: BitString([1.0, 0, 1, 1, 0, 1]),
    "bits-none": lambda model, perm: BitString(None),
    "decode-n": lambda model, perm: decode_weight_index(model, 1.5, 0),
    "tau2-n": lambda model, perm: tau2(model, 2.0, 1, 0, 0),
    "tau2-n-none": lambda model, perm: tau2(model, None, 1, 0, 0),
    "tau2-n-str": lambda model, perm: tau2(model, "2", 1, 0, 0),
    "encode-none": lambda model, perm: encode_weight_index(model, None),
    "encode-int": lambda model, perm: encode_weight_index(model, 5),
    "eval_partial_sum-n": lambda model, perm: eval_partial_sum(
        model, LayoutModel(1), BitString([1, 0, 0, 1, 0, 1]), 2.0
    ),
    "enumerate_compositions": lambda model, perm: list(enumerate_compositions(1.5, 2)),
    "composition_count": lambda model, perm: composition_count(2.5, 2),
    "multinomial_coefficient": lambda model, perm: multinomial_coefficient(2.0, (1, 1)),
    "layout-entry-r": lambda model, perm: LayoutModel(1).entry(2, 1.5, 1),
    "layout-entry-i": lambda model, perm: LayoutModel(1).entry(2, 1, 1.0),
    "layout-jbar-r": lambda model, perm: LayoutModel(1).jbar(2, 1.5),
}


@pytest.mark.parametrize("call", NON_INT_CALLS.values(), ids=NON_INT_CALLS.keys())
def test_non_int_arguments_are_domain_errors(tables, call):
    table = tables("B", 2)
    with pytest.raises(DomainError):
        call(table.model, canonical_permutation(table))


def test_alpha_examples(tables):
    ta = tables("A", 2)
    assert [alpha(ta, 1, xi) for xi in range(4)] == [0, 1, 2, 2]
    assert alpha(ta, 0, 0) == 1
    assert alpha(ta, 2, 2) == 0
    tb = tables("B", 2)
    assert alpha(tb, 1, 11) == 2
    assert alpha(tb, 3, 5) == 0
    assert alpha(tb, 3, 7) == 2
    with pytest.raises(DomainError):
        alpha(ta, 5, 0)
    with pytest.raises(DomainError):
        alpha(ta, 0, 4)


def test_beta_spot_values(tables):
    tb = tables("B", 2)
    assert beta_fast(tb, 1, 10) == 0
    assert beta_fast(tb, 1, 11) == 1


def test_bad_class_refused_before_the_scan(tables):
    # the class is checked once per call, before the bulk tau1 scan
    tb = tables("B", 2)
    before = tb.stats.tau1_queries
    for bad in (-1, tb.T + 1, 1.0, None):
        for call in (
            lambda: beta_fast(tb, bad, 0),
            lambda: beta_fast_trace(tb, bad, 0),
            lambda: enum_b(tb, bad, 1),
        ):
            with pytest.raises(DomainError, match="class index"):
                call()
    assert tb.stats.tau1_queries == before
    assert beta_fast(tb, 1, 14) == 2
    assert beta_fast(tb, 3, 15) == 4
    assert beta_fast(tb, 6, 0) == 1
    ta3 = tables("A", 3)
    assert beta_fast(ta3, 1, 7) == 3  # levels 011, 101, 110


def test_beta_trace(tables):
    tb = tables("B", 2)
    walk = beta_fast_trace(tb, 1, 11)
    assert walk.self_term == 1
    assert walk.steps == [(1, 0), (3, 0), (4, 0)]
    assert walk.total == 1
    # full-range walk recovers gamma
    walk = beta_fast_trace(tb, 3, 15)
    assert walk.total == 4
    assert [z for z, _ in walk.steps] == [1, 2, 3, 4]


def test_beta_fast_equals_brute_exhaustive(tables):
    for name, n in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                    ("B", 1), ("B", 2), ("C", 1), ("C", 2)):
        table = tables(name, n)
        for t in range(table.T + 1):
            for xi in range(table.num_indices):
                assert beta_fast(table, t, xi) == beta_bruteforce(table, t, xi), (
                    name, n, t, xi,
                )


def test_beta_partition_identity(tables):
    for name, n in (("A", 4), ("B", 2), ("C", 2)):
        table = tables(name, n)
        for xi in range(table.num_indices):
            assert sum(
                beta_fast(table, t, xi) for t in range(table.T + 1)
            ) == xi + 1


def test_beta_full_range_is_gamma(tables):
    for name, n in (("A", 5), ("B", 2), ("C", 2), ("B", 3)):
        table = tables(name, n)
        top = table.num_indices - 1
        for t in range(table.T + 1):
            assert beta_fast(table, t, top) == table.gammas[t]
            assert alpha(table, t, top) == table.gammas[t]


def test_walk_mass_identity(tables):
    rng = random.Random(5)
    for name, n in (("A", 6), ("B", 3), ("C", 3)):
        table = tables(name, n)
        width = table.width
        for _ in range(10):
            xi = rng.randrange(table.num_indices)
            per_zeta = {}
            for t in range(table.T + 1):
                for zeta, contrib in beta_fast_trace(table, t, xi).steps:
                    per_zeta[zeta] = per_zeta.get(zeta, 0) + contrib
            expected_zetas = [
                z for z in range(1, width + 1) if (xi >> (width - z)) & 1
            ]
            assert sorted(per_zeta) == expected_zetas
            for zeta, mass in per_zeta.items():
                assert mass == 2 ** (width - zeta), (name, n, xi, zeta)


def test_beta_counts_tau1_queries(tables):
    table = tables("B", 2)
    table.stats.reset()
    beta_fast(table, 1, 11)
    first = table.stats.tau1_queries
    assert first >= composition_count(2, 4)  # at least the bulk scan
    beta_fast(table, 1, 11)
    assert table.stats.tau1_queries == 2 * first  # deterministic per call


def test_enum_examples(tables):
    ta = tables("A", 2)
    assert enum_a(ta, 1, 1) == 1
    assert enum_a(ta, 1, 2) == 2
    assert enum_b(ta, 1, 1) == 1
    assert enum_b(ta, 1, 2) == 2
    assert enum_b(ta, 0, 1) == 3
    tb = tables("B", 2)
    assert enum_b(tb, 1, 1) == 11
    assert enum_b(tb, 1, 2) == 14
    assert enum_b(tb, 3, 2) == 6
    assert enum_b(tb, 6, 1) == 0
    with pytest.raises(DomainError):
        enum_b(tb, 1, 3)
    with pytest.raises(DomainError):
        enum_a(tb, 1, 0)


def test_enum_b_round_trip(tables):
    for name, n in (("A", 4), ("B", 2), ("C", 2)):
        table = tables(name, n)
        for t in range(table.T + 1):
            for s in range(1, table.gammas[t] + 1):
                ell = enum_b(table, t, s)
                assert iweight(table, ell) == t
                assert beta_fast(table, t, ell) == s
                assert ria(table, t, enum_a(table, t, s))


# exhaustive ranges for the checks against oracles that share no code
# with the counting loop; C's Haar chunk -> rank table is not the identity
ORACLE_RANGES = (("A", 8), ("B", 4), ("C", 5))


def test_enum_b_equals_class_lists(tables):
    # the explicit F_n lists IB_{n,t} in level order from SMC(t) on; it is
    # a sort of weight_classes, with no counting loop.  Every (t, s) in
    # order, then in a seeded shuffled order with the class path dropped
    # before every other call: fresh and resumed unranks that scan up and
    # down
    for name, n_top in ORACLE_RANGES:
        for n in range(1, n_top + 1):
            table = tables(name, n)
            canon = canonical_permutation(table).mapping
            calls = [(t, s) for t in range(table.T + 1) for s in range(1, table.gammas[t] + 1)]
            shuffled = random.Random(n).sample(calls, len(calls))
            for j, (t, s) in enumerate(calls + shuffled):
                if j >= len(calls) and j % 2:
                    _forget_path(table, t)
                assert enum_b(table, t, s) == canon[table.smc[t] + s - 1], (name, n, t, s)


def test_beta_fast_equals_bruteforce_oracle(tables):
    # beta_bruteforce's count kept as a running tally of iweight over
    # 0..xi (one pass, not one scan per xi), tied to beta_bruteforce
    # itself on a sample of cutoffs
    for name, n_top in ORACLE_RANGES:
        for n in range(1, n_top + 1):
            table = tables(name, n)
            counts = [0] * (table.T + 1)
            for xi in range(table.num_indices):
                counts[iweight(table, xi)] += 1
                for t in range(table.T + 1):
                    assert beta_fast(table, t, xi) == counts[t], (name, n, t, xi)
            rng = random.Random(n)
            for xi in rng.sample(range(table.num_indices), min(4, table.num_indices)):
                for t in range(table.T + 1):
                    assert beta_fast(table, t, xi) == beta_bruteforce(table, t, xi)


def test_lazy_f_charges_one_bulk_scan(tables):
    table = tables("B", 32)
    scan = composition_count(32, 4)
    assert scan == 6545
    ell = random.Random(3).randrange(table.num_indices)
    before = table.stats.snapshot()
    ellp = f_perm(table, ell)
    assert table.stats.delta(before).tau1_queries == scan
    before = table.stats.snapshot()
    assert inv_f(table, ellp) == ell
    assert table.stats.delta(before).tau1_queries == scan


def test_membership_predicates(tables):
    tb = tables("B", 2)
    assert ria(tb, 1, 1) and ria(tb, 1, 2)
    assert not ria(tb, 1, 0) and not ria(tb, 1, 3)
    assert rib(tb, 1, 11) and rib(tb, 1, 14)
    assert not rib(tb, 1, 12)


def test_cached_maps_match_pointwise(tables):
    # A at n = 1 has an empty high half; C's chunk-to-rank map is not the
    # identity
    for name, n in (("A", 1), ("A", 4), ("A", 9), ("B", 2), ("B", 5), ("C", 2), ("C", 5)):
        table = tables(name, n)
        wc = weight_classes(table)
        sc = step_classes(table)
        dec = decoded_vectors(table)
        for ell in range(table.num_indices):
            assert wc[ell] == iweight(table, ell)
            assert sc[ell] == istep(table, ell)
            assert dec[ell] == decode_weight_index(table.model, n, ell)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_beta_fast_equals_brute_sampled(tables, data):
    name = data.draw(st.sampled_from(["A", "B", "C"]))
    n = data.draw(st.integers(min_value=1, max_value=6 if name == "A" else 3))
    table = tables(name, n)
    t = data.draw(st.integers(min_value=0, max_value=table.T))
    xi = data.draw(st.integers(min_value=0, max_value=table.num_indices - 1))
    assert beta_fast(table, t, xi) == beta_bruteforce(table, t, xi)


def test_beta_bruteforce_refused_beyond_explicit_width(tables, time_limit):
    table = tables("A", 25)
    with time_limit(1), pytest.raises(DomainError, match="n\\(M\\+1\\) <= 24"):
        beta_bruteforce(table, 0, table.num_indices - 1)
    for build in (weight_classes, step_classes, decoded_vectors):
        with time_limit(1), pytest.raises(DomainError, match="n\\(M\\+1\\) <= 24"):
            build(table)
    with time_limit(1), pytest.raises(DomainError, match="n\\(M\\+1\\) <= 24"):
        AdmissiblePermutation.from_rows(table, [])


# each integer check of the package, given True where it wants an int;
# isinstance(True, int) holds, so these once ran with True read as 1
BOOL_TAKERS = {
    "decode-n": (lambda a, ta: decode_weight_index(a, True, 1), "sum length"),
    "decode-ell": (lambda a, ta: decode_weight_index(a, 1, True), "level index"),
    "level": (lambda a, ta: iweight(ta, True), "level index"),
    "tau2-b": (lambda a, ta: tau2(a, 2, 1, 0, True), "chunk bound"),
    "rank-s": (lambda a, ta: enum_b(ta, 1, True), "rank"),
    "class": (lambda a, ta: beta_fast(ta, True, 3), "class index"),
    "gamma-class": (lambda a, ta: ta.gamma(True), "class index"),
    "outcome-rank": (lambda a, ta: a.outcome(True), "outcome rank"),
    "chunk": (lambda a, ta: a.index_of_chunk(True), "chunk value"),
    "layout-M": (lambda a, ta: LayoutModel(True), "M must be"),
    "layout-row": (lambda a, ta: LayoutModel(1).row_block(True), "row index"),
    "layout-offset": (lambda a, ta: LayoutModel(1).entry(1, True, 1), "row offset"),
    "layout-n": (lambda a, ta: LayoutModel(1).jbar_union(True), "n must be"),
    "layout-bits-n": (
        lambda a, ta: weight_index_of_bits(LayoutModel(0), BitString([1, 0]), True),
        "n must be",
    ),
    "bits": (lambda a, ta: BitString([True]), "bits must be"),
    "bit-k": (lambda a, ta: BitString([1]).bit(True), "bit position"),
    "bench-n-list": (lambda a, ta: bench_scaling(a, "A", [True, 2]), "n_list"),
    "bench-samples": (
        lambda a, ta: bench_scaling(a, "A", [1, 2], samples_per_n=True),
        "samples_per_n",
    ),
    "selftest-n-max": (lambda a, ta: selftest(a, True), "n_max"),
    "selftest-seed": (lambda a, ta: selftest(a, 1, seed=True), "seed must be"),
    "bench-seed": (lambda a, ta: bench_scaling(a, "A", [1, 2], seed=True), "seed must be"),
    "random-seed": (lambda a, ta: random_admissible(ta, True), "seed must be"),
    "multinomial-n": (lambda a, ta: multinomial_coefficient(True, (1, 0)), "sum length"),
    "multinomial-part": (
        lambda a, ta: multinomial_coefficient(1, (True, 0)), "composition entries"
    ),
    "parts": (lambda a, ta: composition_count(True, 2), "need m >= 1 parts"),
    "class-of": (lambda a, ta: ta.class_of((True, 2)), "not a composition"),
    "table-n": (lambda a, ta: build_value_table(a, True), "sum length"),
    "perm-level": (lambda a, ta: canonical_permutation(ta)(True), "level index"),
    "perm-summand": (lambda a, ta: canonical_permutation(ta).entry(True, 0), "summand index"),
    "block-rank": (
        lambda a, ta: make_admissible(ta, [(True,), (1, 2, 3), (1, 2, 3), (1,)]),
        "block 0 must be",
    ),
    "clt-grid": (lambda a, ta: clt_table(ta, True), "grid size"),
    "radicand": (lambda a, ta: ExactScalar(1, 1, True), "radicand"),
}


@pytest.mark.parametrize("case", BOOL_TAKERS)
def test_every_integer_check_refuses_a_boolean(tables, case):
    call, match = BOOL_TAKERS[case]
    with pytest.raises(DomainError, match=match):
        call(builtin_model("A"), tables("A", 3))


# every level, rank, class, size and offset check given an int with more
# decimal digits than str() prints, with B at n = 8
HUGE = 1 << 20_000
HUGE_INT_CALLS = {
    "f_perm": (lambda b, tb: f_perm(tb, HUGE), "level index"),
    "inv_f": (lambda b, tb: inv_f(tb, HUGE), "level index"),
    "iweight": (lambda b, tb: iweight(tb, HUGE), "level index"),
    "istep": (lambda b, tb: istep(tb, HUGE), "level index"),
    "enum_b": (lambda b, tb: enum_b(tb, 0, HUGE), "rank"),
    "beta_fast": (lambda b, tb: beta_fast(tb, HUGE, 0), "class index"),
    "alpha": (lambda b, tb: alpha(tb, 0, HUGE), "cutoff xi"),
    "gamma_relation-ell": (lambda b, tb: gamma_relation(tb, HUGE, 0), "level index"),
    "gamma_relation-image": (lambda b, tb: gamma_relation(tb, 0, HUGE), "level index"),
    "build_value_table": (lambda b, tb: build_value_table(b, HUGE), "MAX_WIDTH"),
    "build_value_table-negative": (lambda b, tb: build_value_table(b, -HUGE), "sum length"),
    "composition_count": (lambda b, tb: composition_count(-HUGE, 2), "need m >= 1 parts"),
    "decode-negative": (lambda b, tb: decode_weight_index(b, 8, -HUGE), "level index"),
    "decode-n": (lambda b, tb: decode_weight_index(b, -HUGE, 0), "sum length"),
    "tau2-b": (lambda b, tb: tau2(b, 8, 1, 0, HUGE), "chunk bound"),
    "chunk": (lambda b, tb: b.index_of_chunk(HUGE), "chunk value"),
    "outcome-rank": (lambda b, tb: b.outcome(HUGE), "outcome rank"),
    "layout-offset": (lambda b, tb: LayoutModel(1).entry(2, HUGE, 1), "row offset"),
    "perm-level": (lambda b, tb: canonical_permutation(tb)(-HUGE), "level index"),
    "perm-summand": (lambda b, tb: canonical_permutation(tb).entry(HUGE, 0), "summand index"),
}


@pytest.mark.parametrize("case", HUGE_INT_CALLS)
def test_an_int_too_long_to_print_is_a_domain_error(tables, case):
    call, match = HUGE_INT_CALLS[case]
    with pytest.raises(DomainError, match=match) as caught:
        call(builtin_model("B"), tables("B", 8))
    assert "int of 20001 bits" in str(caught.value)


# every other message that shows an int the caller gave, with A at n = 3;
# a composition is shown entry by entry
HUGE_INT_MESSAGES = {
    "layout-M": (lambda ta: LayoutModel(-HUGE), "M must be"),
    "layout-row": (lambda ta: LayoutModel(1).row_block(-HUGE), "row index"),
    "layout-jbar": (lambda ta: LayoutModel(1).jbar_union(-HUGE), "n must be"),
    "bit-position": (lambda ta: BitString([1]).bit(-HUGE), "bit position"),
    "bit-depth": (lambda ta: BitString([1]).bit(HUGE), "insufficient depth"),
    "clt-grid": (lambda ta: clt_table(ta, -HUGE), "grid size"),
    "selftest": (lambda ta: selftest(ta.model, -HUGE), "n_max"),
    "selftest-width": (lambda ta: selftest(ta.model, HUGE), "selftest needs"),
    "multinomial-entry": (lambda ta: multinomial_coefficient(2, (HUGE, 2 - HUGE)), "entries"),
    "multinomial-sum": (lambda ta: multinomial_coefficient(2, (HUGE, 0)), "sums to"),
    "multinomial-n": (lambda ta: multinomial_coefficient(HUGE, (1, 1)), "expected"),
    "class_of": (lambda ta: ta.class_of((HUGE, 3 - HUGE)), "not a composition"),
    "from_rows": (lambda ta: AdmissiblePermutation.from_rows(ta, [(HUGE, 1, 1)] * 8), "row 0"),
    "encode": (lambda ta: encode_weight_index(ta.model, HUGE), "outcome ranks"),
    "bits": (lambda ta: BitString(HUGE), "bits must be a sequence"),
    "cdf-mode": (lambda ta: ta.cdf(0, HUGE), "cdf mode"),
    "pattern": (lambda ta: ta.model.outcome_index([HUGE]), "pattern"),
    "manual-value": (lambda ta: build_manual(0, [((0,), HUGE), ((1,), HUGE)]), "outcome value"),
    "haar-coefficient": (lambda ta: builtin_model("B").haar.coefficient(HUGE, 0), "no coefficient"),
    "strict": (lambda ta: model_from_json({"M": 0, "strict": HUGE}), "'strict'"),
    "scalar-text": (lambda ta: parse_scalar(HUGE), "scalar text"),
    "slope-fit": (lambda ta: fit_loglog_slope([(1, 1), (-HUGE, 1)]), "slope fit"),
    "builtin-model": (lambda ta: builtin_model(HUGE), "unknown builtin model"),
    "layout-M-wide": (lambda ta: LayoutModel(HUGE), "M must be"),
    "layout-jbar-wide": (lambda ta: LayoutModel(1).jbar_union(HUGE), "MAX_WIDTH"),
    "compositions": (lambda ta: enumerate_compositions(HUGE, 2), "slots"),
    "multinomial-k": (lambda ta: multinomial_coefficient(2, HUGE), "composition must be"),
    "bench-samples-wide": (
        lambda ta: bench_scaling(ta.model, "A", [1, 2], samples_per_n=HUGE), "samples_per_n"
    ),
    "normal-cdf": (lambda ta: normal_cdf(HUGE), "normal_cdf needs"),
}


@pytest.mark.parametrize("case", HUGE_INT_MESSAGES)
def test_a_huge_int_in_any_message_is_a_domain_error(tables, case):
    call, match = HUGE_INT_MESSAGES[case]
    with pytest.raises(DomainError, match=match) as caught:
        call(tables("A", 3))
    assert "int of 20001 bits" in str(caught.value)


# beta_fast, enum_b, istep and iweight test their arguments in one inline
# condition and call the checkers only when it fails, so every message
# still comes from a checker, and the class is checked before the level
# or the rank
def _agrees(call, *checks):
    """call returns an int when every check passes, and otherwise raises
    the DomainError message of the first check that fails."""
    try:
        for check in checks:
            check()
    except DomainError as failed:
        with pytest.raises(DomainError) as caught:
            call()
        return str(caught.value) == str(failed)
    return type(call()) is int


def _edges(top):
    return (-1, 0, 1, top, top + 1, True, 1.5, 2**5000)


def test_inline_guards_agree_with_their_checkers(tables):
    for name, n in (("B", 5), ("A", 10)):
        table = tables(name, n)
        for t in _edges(table.T):
            check_t = partial(table._check_class, t)
            for xi in _edges(table.num_indices - 1):
                assert _agrees(
                    partial(beta_fast, table, t, xi),
                    check_t, partial(indexing._check_level, table, xi, "cutoff xi"),
                ), (name, t, xi)
            for s in _edges(table.gammas[0]) + _edges(table.gammas[table.T]):
                assert _agrees(
                    partial(enum_b, table, t, s), check_t, partial(indexing._check_s, table, t, s)
                ), (name, t, s)
        for ell in _edges(table.num_indices - 1):
            for f in (istep, iweight):
                assert _agrees(partial(f, table, ell), partial(indexing._check_level, table, ell))


# -- the walks' per-class checkpoint path -------------------------------------
# Tables are built inside these tests: the session fixture's tables are
# shared, and their checkpoints depend on which walks ran before.


def _paths(table):
    """Every class's checkpoint path, from the table's walk record."""
    return table._cache["walk"][2]


def _record(table, t):
    """The deepest state of class t's checkpoint path."""
    return _paths(table)[t][-1]


def _pairs_table(monkeypatch, model, n):
    """A new table of model at n whose walks count by pairs, whatever the
    rule says: the table decides on its first walk."""
    table = build_value_table(model, n)
    with monkeypatch.context() as patch:
        _force(patch, False)
        indexing._walk_constants(table)
    return table


def test_paths_live_in_the_walk_record(monkeypatch):
    # lazy calls of every kind leave one walk key in the cache, whose
    # record holds a path per class; forgetting a class empties its path
    # and no other
    for by_pairs in (False, True):
        model = builtin_model("B")
        table = _pairs_table(monkeypatch, model, 8) if by_pairs else build_value_table(model, 8)
        rng = random.Random(8)
        for _ in range(100):
            ell = rng.randrange(table.num_indices)
            image = f_perm(table, ell)
            assert inv_f(table, image) == ell and gamma_relation(table, ell, image)
            beta_fast_trace(table, iweight(table, ell), ell)
        assert set(table._cache) == {"walk"}
        paths = _paths(table)
        assert len(paths) == table.T + 1
        walked = [t for t, path in enumerate(paths) if path]
        assert len(walked) > 1
        before = [path[:] for path in paths]
        _forget_path(table, walked[0])
        assert paths[walked[0]] == []
        assert all(paths[t] == before[t] for t in range(table.T + 1) if t != walked[0])
    # a table that has not walked has no record, and forgets nothing
    table = build_value_table(builtin_model("B"), 3)
    _forget_path(table, 0)
    assert table._cache == {}


def test_rank_checkpoint_in_any_order(monkeypatch, model_a, model_b, model_c):
    # every (t, xi) ranked ascending, descending and shuffled, with trace
    # and unrank walks interleaved, against the running iweight tally;
    # every table here counts by chunk code but the last, forced by pairs
    cases = ((model_a, 10, False), (model_b, 5, False), (model_c, 4, False), (model_b, 5, True))
    for model, n_top, by_pairs in cases:
        for n in range(1, n_top + 1):
            table = _pairs_table(monkeypatch, model, n) if by_pairs else build_value_table(model, n)
            counts = [0] * (table.T + 1)
            want = []
            for xi in range(table.num_indices):
                counts[iweight(table, xi)] += 1
                want.append(list(counts))
            calls = [
                (t, xi) for xi in range(table.num_indices) for t in range(table.T + 1)
            ]
            shuffled = calls[:]
            random.Random(n).shuffle(shuffled)
            for order in (calls, calls[::-1], shuffled):
                for j, (t, xi) in enumerate(order):
                    assert beta_fast(table, t, xi) == want[xi][t], (model, n, t, xi)
                    if j % 7 == 0:
                        other = order[j // 2][1]
                        assert beta_fast_trace(table, t, other).total == want[other][t]
                        s = 1 + j % table.gammas[t]
                        assert beta_fast(table, t, enum_b(table, t, s)) == s
            assert (table._cache["walk"][1] is None) == by_pairs


def test_resumed_rank_equals_fresh_walk(monkeypatch):
    # seeded levels and their neighbours in the last chunk (xi ^ 1) and in
    # the one before it (xi ^ 2^(M+1)); half the classes are iweight(xi),
    # whose walks reach the last chunk, and half are drawn at random.  B
    # and A count by chunk code here, and B once more forced by pairs
    for name, n, by_pairs in (("B", 32, False), ("A", 64, False), ("B", 32, True)):
        model = builtin_model(name)
        table = _pairs_table(monkeypatch, model, n) if by_pairs else build_value_table(model, n)
        scan = composition_count(n, table.model.m)
        rng = random.Random(n)
        resumed = [0, 0, 0]
        for j in range(200):
            xi = rng.randrange(table.num_indices)
            t = iweight(table, xi) if j % 2 else rng.randrange(table.T + 1)
            for kind, x in enumerate((xi, xi ^ 1, xi ^ (1 << (table.model.M + 1)))):
                before = table.stats.snapshot()
                got = beta_fast(table, t, x)
                got_cost = table.stats.delta(before)
                _forget_path(table, t)
                before = table.stats.snapshot()
                assert beta_fast(table, t, x) == got, (name, t, x)
                fresh_cost = table.stats.delta(before)
                assert got_cost.tau1_queries == fresh_cost.tau1_queries == scan
                assert got_cost.bigint_ops <= fresh_cost.bigint_ops
                resumed[kind] += got_cost.bigint_ops < fresh_cost.bigint_ops
        # every xi ^ 1 shares the checkpoint's prefix and resumes (saving
        # ops unless its class ran out before any 1-bit); so does an
        # xi ^ 2^(M+1) whose class ran out above the last two chunks
        assert resumed[1] >= 195 and resumed[2] > 50, (name, by_pairs, resumed)
        assert (table._cache["walk"][1] is None) == by_pairs


def test_unrank_and_trace_leave_the_fresh_rank_checkpoint(monkeypatch):
    # B at n = 32 counts by chunk code; its pairs state is checked here,
    # and its code state below
    _force(monkeypatch, False)
    table = build_value_table(builtin_model("B"), 32)
    rng = random.Random(7)
    m = table.model.m
    costs = [0, 0]
    for _ in range(50):
        t = rng.randrange(table.T + 1)
        s = 1 + rng.randrange(table.gammas[t])
        ell = enum_b(table, t, s)
        # the unrank leaves the state a fresh rank of its level leaves: on
        # entering the last chunk, where at most m compositions are live
        record = _record(table, t)
        _, _, _, _, depth, (pairs, used) = record
        assert depth == table.n - 1 and 1 <= len(pairs) <= m
        assert sum(used) == depth
        _forget_path(table, t)
        before = table.stats.snapshot()
        assert beta_fast(table, t, ell) == s
        fresh = table.stats.delta(before).bigint_ops
        assert _record(table, t) == record
        # so a rank of that level resumes at its last chunk: one step,
        # whose row fills only the values strictly on cx's nearer side,
        # summing each live pair's product for every value it passes
        enum_b(table, t, s)
        before = table.stats.snapshot()
        assert beta_fast(table, t, ell) == s
        resumed = table.stats.delta(before).bigint_ops
        cx = ell & (m - 1)
        assert resumed == 1 + min(cx, m - 1 - cx) * len(pairs) <= fresh
        costs[0] += resumed
        costs[1] += fresh
        # the trace walks from chunk 1 even where the checkpoint fits,
        # and leaves the record the fresh rank left; its rows fill every
        # value below cx, so it sums at least what the rank sums
        record = _record(table, t)
        before = table.stats.snapshot()
        assert beta_fast_trace(table, t, ell).total == s
        assert table.stats.delta(before).bigint_ops >= fresh
        assert _record(table, t) == record
    assert costs[0] < costs[1], costs


def test_unrank_and_trace_leave_the_fresh_rank_code_state():
    # the same walks counting by chunk code: a state holds rest, class t's
    # code minus its prefix's, in place of the pairs and used
    table = build_value_table(builtin_model("B"), 32)
    n, mask = table.n, table.model.m - 1
    rng = random.Random(7)
    for _ in range(50):
        t = rng.randrange(table.T + 1)
        s = 1 + rng.randrange(table.gammas[t])
        ell = enum_b(table, t, s)
        # on entering the last chunk, rest is the code of ell's last chunk
        record = _record(table, t)
        _, _, count, end, depth, rest = record
        assert depth == n - 1 and count < s <= end
        assert rest == table.chunk_codes[ell & mask]
        # a fresh rank reads one row per chunk, and leaves the same state
        _forget_path(table, t)
        before = table.stats.bigint_ops
        assert beta_fast(table, t, ell) == s
        fresh = table.stats.bigint_ops - before
        assert fresh == n
        assert _record(table, t) == record
        # a resumed rank reads only the last chunk's row
        enum_b(table, t, s)
        before = table.stats.bigint_ops
        assert beta_fast(table, t, ell) == s
        assert table.stats.bigint_ops - before == 1
        # the trace walks from the class root and leaves the same state
        before = table.stats.bigint_ops
        assert beta_fast_trace(table, t, ell).total == s
        assert table.stats.bigint_ops - before == fresh
        assert _record(table, t) == record


def test_trace_leaves_the_path_of_a_rank_from_the_root(model_a, model_b, model_c):
    # a trace is a rank from the class root that files its counts: over
    # whatever path it finds, it leaves the states a root-started
    # beta_fast of the same (t, xi) leaves, at the same bigint_ops
    for model, n in ((model_a, 40), (model_b, 16), (model_c, 8)):
        table = build_value_table(model, n)
        rng = random.Random(n)
        kept = next(d for d in range(n + 1) if model.m**d >= n) + 1
        ran_out = 0
        for j in range(200):
            xi = rng.randrange(table.num_indices)
            t = iweight(table, xi) if j % 2 else rng.randrange(table.T + 1)
            _forget_path(table, t)
            before = table.stats.bigint_ops
            count = beta_fast(table, t, xi)
            cost = table.stats.bigint_ops - before
            path = _paths(table)[t][:]
            enum_b(table, t, 1 + rng.randrange(table.gammas[t]))
            before = table.stats.bigint_ops
            assert beta_fast_trace(table, t, xi).total == count
            assert table.stats.bigint_ops - before == cost, (n, t, xi)
            assert _paths(table)[t] == path, (n, t, xi)
            # the class ran out (an empty rank block) above the last D
            # chunks, whose states are kept
            ran_out += len(path) == 1 and path[0][2] == path[0][3] and path[0][4] < n - kept
        assert ran_out > 50, (n, ran_out)


def test_unranks_in_rank_order_resume(monkeypatch):
    # every rank of every class in order: each unrank resumes from the
    # path the one before left, returns what a walk from chunk 1 returns
    # at no higher cost, and leaves the path that walk leaves; A and B
    # count by chunk code, and B once more forced by pairs
    for name, n, by_pairs in (("A", 16, False), ("B", 8, False), ("B", 7, True)):
        model = builtin_model(name)
        table = _pairs_table(monkeypatch, model, n) if by_pairs else build_value_table(model, n)
        stats = table.stats
        costs = [0, 0]
        for t in range(table.T + 1):
            for s in range(1, table.gammas[t] + 1):
                before = stats.bigint_ops
                got = enum_b(table, t, s)
                resumed = stats.bigint_ops - before
                path = _paths(table)[t][:]
                _forget_path(table, t)
                before = stats.bigint_ops
                assert enum_b(table, t, s) == got, (name, t, s)
                fresh = stats.bigint_ops - before
                assert resumed <= fresh, (name, t, s)
                assert _paths(table)[t] == path
                costs[0] += resumed
                costs[1] += fresh
        assert costs[0] < costs[1], (name, by_pairs, costs)
        assert (table._cache["walk"][1] is None) == by_pairs


def test_a_rank_in_a_spent_block_returns_at_once():
    # a rank that resumes in a block where its class has run out takes no
    # step: it returns the block's count, leaves its path cut after that
    # state, as the loop left it (it appended nothing there and stopped),
    # pays its one tau1 scan and adds no bigint op.  B n = 5 and A n = 10
    # walk by chunk code and rank every level in every class.  The Haar
    # model at n = 12 walks by pairs and has 8^12 levels in 47,459
    # classes, so it ranks runs of consecutive seeded levels in seeded
    # classes and in the levels' own
    cases = []
    for name, n in (("B", 5), ("A", 10)):
        table = build_value_table(builtin_model(name), n)
        cases.append((table, range(table.T + 1), range(table.num_indices), 0.6))
    haar = build_value_table(load_model(str(HAAR_M2)), 12)
    rng = random.Random(12)
    starts = [rng.randrange(haar.num_indices - 16) for _ in range(8)]
    levels = sorted({start + k for start in starts for k in range(16)})
    classes = {rng.randrange(haar.T + 1) for _ in range(40)} | {iweight(haar, x) for x in levels}
    cases.append((haar, sorted(classes), levels, 0.8))
    for table, classes, levels, share in cases:
        root = build_value_table(table.model, table.n)  # each rank from the class root
        spent = 0
        for t in classes:
            for xi in levels:
                walk = table._cache.get("walk")
                path = walk[2][t][:] if walk else []
                j = max((k for k, state in enumerate(path) if state[0] <= xi < state[1]), default=-1)
                before = table.stats.snapshot()
                got = beta_fast(table, t, xi)
                cost = table.stats.delta(before)
                if j < 0 or path[j][2] != path[j][3]:
                    continue
                spent += 1
                assert got == path[j][2]
                assert _paths(table)[t] == path[: j + 1]
                assert (cost.tau1_queries, cost.bigint_ops) == (table.num_compositions, 0)
                _forget_path(root, t)
                assert beta_fast(root, t, xi) == got, (table, t, xi)
        assert spent > share * len(classes) * len(levels), (table, spent)
        assert (table._cache["walk"][1] is None) == (table is haar)


def test_checkpoint_paths_stay_bounded():
    # D is the least d with m^d >= n, plus one.  A class keeps its states
    # on entering the last D chunks, at increasing depths, or the one
    # state where the class ran out above them: never more than D + 1
    table_b = build_value_table(builtin_model("B"), 32)
    rng = random.Random(32)
    for _ in range(500):
        ell = rng.randrange(table_b.num_indices)
        image = f_perm(table_b, ell)
        assert inv_f(table_b, image) == ell
        assert gamma_relation(table_b, ell, image)
    table_a = build_value_table(builtin_model("A"), 256)
    for t in range(table_a.T + 1):
        f_perm(table_a, table_a.smc[t] + rng.randrange(table_a.gammas[t]))
    for table in (table_b, table_a):
        m, n = table.model.m, table.n
        bound = next(d for d in range(n + 1) if m**d >= n) + 1
        paths = _paths(table)
        assert sum(map(len, paths)) > table.T
        for path in paths:
            depths = [state[4] for state in path]
            assert len(path) <= bound + 1
            assert depths == sorted(set(depths))
            ran_out = len(path) == 1 and path[0][2] == path[0][3]  # an empty rank block
            assert ran_out or all(i >= n - bound for i in depths), depths


# sha256 over (model, n, t, argument, result, tau1 delta) of every call
# below, each from chunk 1, pinned before unranks scanned from the nearer
# end of each block: what the walks return and the queries they make
FRESH_WALK_RESULTS_DIGEST = "40d9e56490cb1bd7e3e875c0eca4d890df21c3ba7a8e04bbd85dabd3dee149c2"

# the same records with each call's bigint_ops delta appended; every table
# here counts by chunk code, A within the row budget
FRESH_WALKS_DIGEST = "a83b4151a5324308be87adbb502dfe65943906addde793c2eca52fbca77a45be"


def test_fresh_walks_digest_pinned(tables):
    results, whole = hashlib.sha256(), hashlib.sha256()
    for name, n in (("A", 64), ("B", 32), ("C", 12), ("A", 9)):
        table = tables(name, n)
        rng = random.Random(n)
        for j in range(100):
            xi = rng.randrange(table.num_indices)
            t = iweight(table, xi) if j % 2 else rng.randrange(table.T + 1)
            s = 1 + rng.randrange(table.gammas[t])
            for call, arg in ((beta_fast, xi), (beta_fast_trace, xi), (enum_b, s)):
                _forget_path(table, t)
                before = table.stats.snapshot()
                got = call(table, t, arg)
                cost = table.stats.delta(before)
                record = (name, n, t, arg, got, cost.tau1_queries)
                results.update(repr(record).encode())
                whole.update(repr(record + (cost.bigint_ops,)).encode())
    assert results.hexdigest() == FRESH_WALK_RESULTS_DIGEST
    assert whole.hexdigest() == FRESH_WALKS_DIGEST


# sha256 over (model, n, t, argument, result, tau1 delta) of seeded walks
# on haar_m2 at n = 12 and A at n = 362, the first tables past the row
# budget, which count by pairs with nothing forced: each call from chunk
# 1, then a rank of a neighbouring level and the next rank's unrank
# resumed from the path it left.  Pinned while the pairs walk still had
# its own passes
PAIRS_WALK_RESULTS_DIGEST = "da15bd2e4dd8ab221a1057584fcb016464cb6b799f1852917e8f48b679cecedd"


def test_pairs_walk_results_digest_pinned():
    digest = hashlib.sha256()
    haar = load_model(str(HAAR_M2))
    for name, model, n in (("haar_m2", haar, 12), ("A", builtin_model("A"), 362)):
        table = build_value_table(model, n)
        rng = random.Random(n)
        for j in range(60):
            xi = rng.randrange(table.num_indices)
            t = iweight(table, xi) if j % 2 else rng.randrange(table.T + 1)
            s = 1 + rng.randrange(table.gammas[t])
            fresh = [(beta_fast, xi), (beta_fast_trace, xi), (enum_b, s)]
            resumed = [(beta_fast, xi ^ 1), (enum_b, s % table.gammas[t] + 1)]
            for k, (call, arg) in enumerate(fresh + resumed):
                if k < len(fresh):
                    _forget_path(table, t)
                before = table.stats.tau1_queries
                got = call(table, t, arg)
                record = (name, n, t, arg, got, table.stats.tau1_queries - before)
                digest.update(repr(record).encode())
        assert table._cache["walk"][1] is None
    assert digest.hexdigest() == PAIRS_WALK_RESULTS_DIGEST


# bigint_ops of f_perm at 200 seeded levels of B at n = 32, each walk from
# chunk 1: B at n = 32 counts by chunk code, one row read per chunk
FRESH_UNRANK_BIGINT_OPS = 200 * 32


def test_fresh_unrank_bigint_ops_pinned(tables):
    table = tables("B", 32)
    rng = random.Random(32)
    total = 0
    for _ in range(200):
        ell = rng.randrange(table.num_indices)
        _forget_path(table, istep(table, ell))
        before = table.stats.bigint_ops
        f_perm(table, ell)
        total += table.stats.bigint_ops - before
    assert total == FRESH_UNRANK_BIGINT_OPS


@pytest.mark.parametrize("name, n", [("B", 32), ("A", 64)])
def test_fresh_unrank_at_block_ends_and_direction_switch(monkeypatch, tables, name, n):
    # by pairs (A, forced: the rule counts A at n = 64 by chunk code),
    # s = gamma_t // 2 is the last rank whose chunk-1 row fills up from
    # entry 0, and gamma_t // 2 + 1 the first that fills down from m; by
    # code (B), the ranks at both ends and the middle of a block
    if name == "A":
        _force(monkeypatch, False)
        table = build_value_table(builtin_model(name), n)
    else:
        table = tables(name, n)
    for t in range(table.T + 1):
        g = table.gammas[t]
        for s in sorted({1, g // 2, g // 2 + 1, g} - {0}):
            _forget_path(table, t)
            ell = enum_b(table, t, s)
            assert iweight(table, ell) == t, (t, s)
            assert beta_fast(table, t, ell) == s, (t, s)
    assert (table._cache["walk"][1] is None) == (name == "A")


# -- counting completions by chunk code ---------------------------------------
# A table decides on its first walk whether its walks count by chunk code
# or by pairs (indexing._counts_by_code), so a test that forces either
# builds its own tables, never the session fixture's.

HAAR_M2 = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "haar_m2.json"


def _force(monkeypatch, by_code):
    """Tables that have not walked yet count by chunk code (True) or by pairs."""
    monkeypatch.setattr(indexing, "_counts_by_code", lambda table: by_code)


def test_the_rule_admits_every_b_and_a_c_haar_to_the_row_budget_edge(tables):
    # sum_{r<n} min(T + 1, |K_r|) <= max(|K_n|, ROW_BUDGET) bounds the
    # entries of N_0 .. N_{n-1} by what K_n holds or by the budget.  A's
    # counts hold n(n + 1)/2 entries against n + 1 compositions, so the
    # budget admits A to n = 361 (bound 65,341; 65,703 at n = 362), C to
    # n = 37 (60,436; 65,991 at n = 38) and haar_m2 to n = 11 (43,758;
    # 75,582 at n = 12), and haar_m2 n = 21 is refused in
    # tests/test_wide_tables.py
    haar = load_model(str(HAAR_M2))
    cases = [(build_value_table(builtin_model("A"), n), True) for n in range(1, 257)]
    cases += [(build_value_table(builtin_model("A"), n), n <= 361) for n in (361, 362)]
    cases += [(tables("C", n), n <= 37) for n in list(range(1, 13)) + [37, 38]]
    cases += [(build_value_table(haar, n), n <= 11) for n in range(1, 13)]
    cases += [(build_value_table(builtin_model("B"), n), True) for n in list(range(1, 41)) + [64]]
    for table, admitted in cases:
        assert indexing._counts_by_code(table) == admitted, (table.model.m, table.n)
        if admitted:
            m, classes = table.model.m, table.T + 1
            bound = sum(min(classes, composition_count(r, m)) for r in range(table.n))
            counts = indexing._chunk_counts(table.chunk_codes, table.n)
            budget = max(table.num_compositions, indexing.ROW_BUDGET)
            assert sum(map(len, counts)) <= bound <= budget, (m, table.n)


@pytest.mark.parametrize("name, n", [("A", 361), ("haar_m2", 11)])
def test_rows_at_the_row_budget_edge(time_limit, name, n):
    # the widest A and haar_m2 tables the budget admits: the first walk
    # builds their rows within a second, and they hold at most
    # ROW_BUDGET + T + 1 rows, N_1 .. N_n
    model = load_model(str(HAAR_M2)) if name == "haar_m2" else builtin_model(name)
    table = build_value_table(model, n)
    with time_limit(1):
        f_perm(table, table.num_indices // 3)
    rows = table._cache["walk"][1]
    assert rows is not None
    assert sum(map(len, rows)) <= indexing.ROW_BUDGET + table.T + 1


def test_chunk_counts_one_step_further_are_the_gammas(tables):
    # N_n counts the n-chunk strings by their summed code: gamma_t at
    # class t's code, on every table the test suite builds in process
    haar = load_model(str(HAAR_M2))
    cases = [tables(name, n) for name, top in (("A", 24), ("B", 16), ("C", 12)) for n in range(1, top + 1)]
    cases += [tables(name, n) for name, n in (("A", 40), ("A", 64), ("A", 256), ("B", 32), ("B", 64))]
    cases += [build_value_table(haar, n) for n in range(1, 11)]
    for table in cases:
        counts = indexing._chunk_counts(table.chunk_codes, table.n + 1)
        assert len(counts) == table.n + 1 and counts[0] == {0: 1}
        want = {code: table.gammas[t] for code, t in table._class_by_code.items()}
        assert counts[table.n] == want, table


@pytest.mark.parametrize("by_code", [True, False], ids=["by_code", "by_pairs"])
def test_counting_on_explicit_tables(monkeypatch, by_code):
    # every explicit-range table forced to count by chunk code, or by
    # pairs, against the explicit F_n, which lists each IB_{n,t} in level
    # order from SMC(t) on; every (t, s) and (t, xi) up to width 12,
    # seeded ones beyond.  Up to width 16 beta is the weight_classes
    # count, past it the position of xi in class t's block of F_n.  The
    # rule sends B to the code walk, so this is where the pairs walk is
    # checked on classes of many compositions
    _force(monkeypatch, by_code)
    for name, n_top in (("A", 24), ("B", 12)):
        for n in range(1, n_top + 1):
            table = build_value_table(builtin_model(name), n)
            canon = canonical_permutation(table).mapping
            rng = random.Random(n)
            if table.width <= 12:
                ranks = [(t, s) for t in range(table.T + 1) for s in range(1, table.gammas[t] + 1)]
                levels = range(table.num_indices)
            else:
                ranks = [(t, 1 + rng.randrange(table.gammas[t])) for t in rng.choices(range(table.T + 1), k=150)]
                levels = sorted(rng.randrange(table.num_indices) for _ in range(60))
            for t, s in ranks:
                assert enum_b(table, t, s) == canon[table.smc[t] + s - 1], (name, n, t, s)
            if table.width <= 16:
                seen = [0] * (table.T + 1)
                classes = weight_classes(table)
                want, at = {}, 0
                for xi in levels:
                    for level in range(at, xi + 1):
                        seen[classes[level]] += 1
                    at = xi + 1
                    want[xi] = list(seen)
            else:
                blocks = [canon[table.smc[t]:table.smc[t + 1]] for t in range(table.T + 1)]
                want = {xi: [bisect_right(b, xi) for b in blocks] for xi in levels}
            for xi in levels:
                for t in range(table.T + 1):
                    assert beta_fast(table, t, xi) == want[xi][t], (name, n, t, xi)
            assert (table._cache["walk"][1] is not None) == by_code


@pytest.mark.parametrize(
    "name, n, levels",
    [("B", 32, 100), ("B", 64, 30), ("haar_m2", 8, 100), ("A", 361, 30)],
    ids=["32-100", "64-30", "haar_m2-8-100", "A-361-30"],
)
def test_counting_by_pairs_and_by_code_agree(monkeypatch, name, n, levels):
    # B at these widths, haar_m2 at n = 8 (three bits a chunk) and A at
    # n = 361, the row budget's edge, count by chunk code; the same seeded
    # ranks, traces and unranks on a table forced to count by pairs
    # return the same, at the same tau1 queries
    model = load_model(str(HAAR_M2)) if name == "haar_m2" else builtin_model(name)
    by_code, by_pairs = (build_value_table(model, n) for _ in range(2))
    monkeypatch.setattr(indexing, "_counts_by_code", lambda table: table is by_code)
    rng = random.Random(n)
    for j in range(levels):
        xi = rng.randrange(by_code.num_indices)
        t = iweight(by_code, xi) if j % 2 else rng.randrange(by_code.T + 1)
        s = 1 + rng.randrange(by_code.gammas[t])
        got = []
        for table in (by_code, by_pairs):
            before = table.stats.tau1_queries
            walk = beta_fast_trace(table, t, xi)
            got.append((
                beta_fast(table, t, xi), walk.total, walk.self_term, walk.steps,
                enum_b(table, t, s), table.stats.tau1_queries - before,
            ))
        assert got[0] == got[1], (n, t, xi, s)
    assert by_code._cache["walk"][1] is not None and by_pairs._cache["walk"][1] is None
