"""Admissible permutations of the level indices.

A permutation pi of [0, 2^(n(M+1))) is admissible when
iweight(pi(ell)) = istep(ell) for every ell; equivalently pi carries the
contiguous step-side block IA_{n,t} onto the scattered weight-side set
IB_{n,t} for every class t.  Admissible permutations are exactly the
choices of one bijection per class, so they number
prod_t gamma_{n,t}! and decompose into per-class rank permutations
phi_t of {1..gamma_t} via pi(enum_a(t, s)) = enum_b(t, phi_t(s)).

F_n is the canonical admissible permutation (phi_t = identity for all
t).  f_perm evaluates it lazily at one ell by unranking the within-class
rank in the counting loop of indexing (enum_b), and inv_f inverts it by
ranking in the same loop (beta_fast).  Each call makes one bulk tau1
scan over K_n (|K_n| counted queries), so both stay polynomial relative
to tau1 at any width.  Explicit permutation tables are only
materialized for n(M+1) <= EXPLICIT_WIDTH_LIMIT.

The characterizing relation: ell' = F_n(ell) is the unique solution of

    beta(istep(ell), ell') * [iweight(ell') = istep(ell)] = alpha(istep(ell), ell).
"""

from __future__ import annotations

import random
from math import factorial, prod
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DomainError
from .indexing import (
    EXPLICIT_WIDTH_LIMIT,
    _check_level,
    _require_explicit,
    alpha,
    beta_fast,
    enum_b,
    istep,
    iweight,
    step_classes,
    weight_classes,
)
from .multinomial import ValueTable


def f_perm(table: ValueTable, ell: int) -> int:
    """F_n(ell): the istep(ell)-class member of matching within-class rank."""
    t = istep(table, ell)
    s = ell - table.smc[t] + 1
    return enum_b(table, t, s)


def inv_f(table: ValueTable, ellp: int) -> int:
    """F_n^{-1}(ellp) = SMC(t) + beta(t, ellp) - 1 at t = iweight(ellp)."""
    t = iweight(table, ellp)
    s = beta_fast(table, t, ellp)
    return table.smc[t] + s - 1


def gamma_relation(table: ValueTable, ell: int, ellp: int) -> bool:
    """Does (ell, ellp) satisfy the characterizing relation of F_n?"""
    _check_level(table, ell)
    _check_level(table, ellp)
    t = istep(table, ell)
    chi = 1 if iweight(table, ellp) == t else 0
    return beta_fast(table, t, ellp) * chi == alpha(table, t, ell)


def weight_class_lists(table: ValueTable) -> List[List[int]]:
    """IB_{n,t} as ascending lists, one per class (explicit-width only)."""
    _require_explicit(table.width)
    cached = table._cache.get("weight_class_lists")
    if cached is not None:
        return cached
    lists: List[List[int]] = [[] for _ in range(table.T + 1)]
    for ell, t in enumerate(weight_classes(table)):
        lists[t].append(ell)
    table._cache["weight_class_lists"] = lists
    return lists


class AdmissiblePermutation:
    """Explicit admissible permutation: a full mapping plus its block ranks.

    block_perms[t] is the 1-based rank permutation phi_t with
    mapping[enum_a(t, s)] = enum_b(t, phi_t(s)).
    """

    def __init__(self, table: ValueTable, mapping: Sequence[int], block_perms):
        self.table = table
        self.n = table.n
        self.width = table.width
        self.mapping = tuple(mapping)
        self.block_perms = tuple(tuple(b) for b in block_perms)

    def __call__(self, ell: int) -> int:
        _check_level(self.table, ell)
        return self.mapping[ell]

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other):
        if isinstance(other, AdmissiblePermutation):
            return self.mapping == other.mapping
        return NotImplemented

    def __hash__(self):
        return hash(self.mapping)

    def inverse_mapping(self) -> List[int]:
        inv = [0] * len(self.mapping)
        for ell, ellp in enumerate(self.mapping):
            inv[ellp] = ell
        return inv

    def pairs(self):
        return enumerate(self.mapping)

    def __repr__(self):
        return f"AdmissiblePermutation(n={self.n}, size={len(self.mapping)})"


def make_admissible(table: ValueTable, block_perms) -> AdmissiblePermutation:
    """Assemble the admissible permutation with the given per-class ranks."""
    _require_explicit(table.width)
    blocks = [tuple(b) for b in block_perms]
    if len(blocks) != table.T + 1:
        raise DomainError(
            f"need {table.T + 1} block permutations, got {len(blocks)}"
        )
    for t, b in enumerate(blocks):
        if sorted(b) != list(range(1, table.gammas[t] + 1)):
            raise DomainError(
                f"block {t} must be a permutation of 1..{table.gammas[t]}, got {b!r}"
            )
    lists = weight_class_lists(table)
    mapping = [0] * table.num_indices
    for t, b in enumerate(blocks):
        start = table.smc[t]
        ib = lists[t]
        for s0, rank in enumerate(b):
            mapping[start + s0] = ib[rank - 1]
    return AdmissiblePermutation(table, mapping, blocks)


def canonical_permutation(table: ValueTable) -> AdmissiblePermutation:
    """F_n as an explicit table: identity ranks in every class."""
    return make_admissible(
        table, [range(1, g + 1) for g in table.gammas]
    )


def blocks_of(table: ValueTable, mapping: Sequence[int]) -> List[Tuple[int, ...]]:
    """Recover the per-class rank permutations of an admissible mapping."""
    _require_explicit(table.width)
    reason = admissibility_failure(table, mapping)
    if reason is not None:
        raise DomainError(f"mapping is not admissible: {reason}")
    rank = [0] * table.num_indices
    for ib in weight_class_lists(table):
        for s, ell in enumerate(ib, 1):
            rank[ell] = s
    smc = table.smc
    return [
        tuple(rank[ellp] for ellp in mapping[smc[t]:smc[t + 1]])
        for t in range(table.T + 1)
    ]


PermLike = Union[AdmissiblePermutation, Sequence[int]]


def _as_mapping(perm: PermLike) -> Sequence[int]:
    if isinstance(perm, AdmissiblePermutation):
        return perm.mapping
    return perm


def admissibility_failure(table: ValueTable, perm: PermLike) -> Optional[str]:
    """None if admissible, else a one-line reason."""
    mapping = _as_mapping(perm)
    num = table.num_indices
    if len(mapping) != num:
        return f"mapping has {len(mapping)} entries, expected {num}"
    seen = bytearray(num)
    for ell, ellp in enumerate(mapping):
        if not isinstance(ellp, int) or not 0 <= ellp < num:
            return f"pi({ell}) = {ellp!r} is out of range [0, {num})"
        if seen[ellp]:
            return f"not a bijection: {ellp} hit twice (second time at ell={ell})"
        seen[ellp] = 1
    wc = weight_classes(table)
    sc = step_classes(table)
    for ell, ellp in enumerate(mapping):
        if wc[ellp] != sc[ell]:
            return (
                f"class mismatch at ell={ell}: row sum of pi(ell) is in "
                f"class {wc[ellp]}, expected istep={sc[ell]}"
            )
    return None


def verify_admissible(table: ValueTable, perm: PermLike) -> bool:
    _require_explicit(table.width)
    return admissibility_failure(table, perm) is None


def count_admissible(table: ValueTable) -> int:
    """prod_t gamma_{n,t}!  (exact big integer)."""
    return prod(factorial(g) for g in table.gammas)


def random_admissible(table: ValueTable, seed: int) -> AdmissiblePermutation:
    """Uniformly random admissible permutation from a seeded generator."""
    _require_explicit(table.width)
    rng = random.Random(seed)
    blocks = []
    for g in table.gammas:
        b = list(range(1, g + 1))
        rng.shuffle(b)
        blocks.append(b)
    return make_admissible(table, blocks)
