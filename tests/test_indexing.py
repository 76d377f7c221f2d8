"""Decode, class maps, alpha/beta, the prefix walk and rank/unrank.

beta_bruteforce is the oracle: it literally counts matching levels.
Every fast-path value is compared against it exhaustively on small
tables and by sampling on larger ones; frozen spot values were worked
out by hand from the class lists.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantperm import (
    AdmissiblePermutation,
    BitString,
    DomainError,
    alpha,
    beta_bruteforce,
    beta_fast,
    beta_fast_trace,
    build_value_table,
    builtin_model,
    decode_weight_index,
    encode_weight_index,
    enum_a,
    enum_b,
    f_perm,
    inv_f,
    is_n,
    is_star,
    istep,
    iweight,
    ria,
    rib,
    tau2,
)
from quantperm.indexing import decoded_vectors, step_classes, weight_classes
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
    # C is irrational, so its lattice codes pack a pair (span > 1)
    table = tables(name, n)
    model = table.model
    rng = random.Random(n)
    for _ in range(1000):
        ell = rng.randrange(table.num_indices)
        svec = decode_weight_index(model, n, ell)
        total = sum((model.outcome(s) for s in svec), model.zero())
        assert table.values[iweight(table, ell)] == total, (name, ell)


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


# every rank, chunk, bound and bit given as a non-int, with B at n = 2
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
    # a sort of weight_classes, with no counting loop
    for name, n_top in ORACLE_RANGES:
        for n in range(1, n_top + 1):
            table = tables(name, n)
            canon = canonical_permutation(table).mapping
            for t in range(table.T + 1):
                start = table.smc[t]
                for s in range(1, table.gammas[t] + 1):
                    assert enum_b(table, t, s) == canon[start + s - 1], (name, n, t, s)


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


# -- the rank walk's per-class checkpoint ------------------------------------
# Tables are built inside these tests: the session fixture's tables are
# shared, and their checkpoints depend on which walks ran before.


def _record(table, t):
    return table._cache.get(("rank", t))


def test_rank_checkpoint_in_any_order(model_a, model_b, model_c):
    # every (t, xi) ranked ascending, descending and shuffled, with trace
    # and unrank walks interleaved, against the running iweight tally
    for model, n_top in ((model_a, 10), (model_b, 5), (model_c, 4)):
        for n in range(1, n_top + 1):
            table = build_value_table(model, n)
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


def test_resumed_rank_equals_fresh_walk():
    # seeded levels and their neighbours in the last chunk (xi ^ 1) and in
    # the one before it (xi ^ 2^(M+1)); half the classes are iweight(xi),
    # whose walks reach the last chunk, and half are drawn at random
    for name, n in (("B", 32), ("A", 64)):
        table = build_value_table(builtin_model(name), n)
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
                table._cache.pop(("rank", t), None)
                before = table.stats.snapshot()
                assert beta_fast(table, t, x) == got, (name, t, x)
                fresh_cost = table.stats.delta(before)
                assert got_cost.tau1_queries == fresh_cost.tau1_queries == scan
                assert got_cost.bigint_ops <= fresh_cost.bigint_ops
                resumed[kind] += got_cost.bigint_ops < fresh_cost.bigint_ops
        # every xi ^ 1 shares the checkpoint's prefix and resumes (saving
        # ops unless its class ran out before any 1-bit); so does an
        # xi ^ 2^(M+1) whose class ran out above the last two chunks
        assert resumed[1] >= 195 and resumed[2] > 50, (name, resumed)


def test_unrank_leaves_the_rank_checkpoint_and_trace_leaves_it_alone():
    table = build_value_table(builtin_model("B"), 32)
    rng = random.Random(7)
    costs = [0, 0]
    for _ in range(50):
        t = rng.randrange(table.T + 1)
        s = 1 + rng.randrange(table.gammas[t])
        ell = enum_b(table, t, s)
        # the unrank leaves the state a fresh rank of its level leaves: on
        # entering the last chunk, where at most m compositions are live
        record = _record(table, t)
        depth, _, _, pairs, _ = record
        assert depth == table.n - 1 and 1 <= len(pairs) <= table.model.m
        table._cache.pop(("rank", t))
        before = table.stats.snapshot()
        assert beta_fast(table, t, ell) == s
        fresh = table.stats.delta(before).bigint_ops
        assert _record(table, t) == record
        # so a rank of that level resumes at its last chunk, whose pass
        # runs over the chunk values below ell's
        enum_b(table, t, s)
        before = table.stats.snapshot()
        assert beta_fast(table, t, ell) == s
        resumed = table.stats.delta(before).bigint_ops
        assert resumed == (ell & (table.model.m - 1)) * len(pairs) <= fresh
        costs[0] += resumed
        costs[1] += fresh
        # the trace walks from chunk 1 even where the checkpoint fits,
        # and leaves the record as it was
        record = _record(table, t)
        before = table.stats.snapshot()
        assert beta_fast_trace(table, t, ell).total == s
        assert table.stats.delta(before).bigint_ops == fresh
        assert _record(table, t) is record
    assert costs[0] < costs[1], costs


# sha256 over (model, n, t, argument, result, tau1 delta, bigint_ops
# delta) of every call below, each from chunk 1; pinned before the rank,
# unrank and trace walks became one pass per chunk
FRESH_WALKS_DIGEST = "e4ff459552a527a21f0ffcec4678ebfa6788f0d487dc18e83983d3eccfdbda14"


def test_fresh_walks_digest_pinned(tables):
    digest = hashlib.sha256()
    for name, n in (("A", 64), ("B", 32), ("C", 12), ("A", 9)):
        table = tables(name, n)
        rng = random.Random(n)
        for j in range(100):
            xi = rng.randrange(table.num_indices)
            t = iweight(table, xi) if j % 2 else rng.randrange(table.T + 1)
            s = 1 + rng.randrange(table.gammas[t])
            for call, arg in ((beta_fast, xi), (beta_fast_trace, xi), (enum_b, s)):
                table._cache.pop(("rank", t), None)
                before = table.stats.snapshot()
                got = call(table, t, arg)
                cost = table.stats.delta(before)
                digest.update(
                    repr((name, n, t, arg, got, cost.tau1_queries, cost.bigint_ops)).encode()
                )
    assert digest.hexdigest() == FRESH_WALKS_DIGEST
