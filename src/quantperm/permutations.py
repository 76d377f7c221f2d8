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
to tau1 at any width.

Explicitly, F_n lists IB_{n,0}, IB_{n,1}, ... in level order, so that
IB_{n,t} fills the step block [SMC(t), SMC(t+1)); it is built once per
table, class by class, from the lattice codes of the halves of each
level.  Every other admissible permutation is that array with each
class's slice reordered: make_admissible reads
pi(SMC(t) + s - 1) = F_n(SMC(t) + phi_t(s) - 1), blocks_of recovers
phi_t through F_n^{-1}, and random_admissible shuffles each slice of F_n.

AdmissiblePermutation is the one explicit level mapping of the package:
a read-only array('I') view of pi(0), pi(1), ....  It is also the strong
trim representation of pi (see representation): row ell of the array is
decode(pi(ell)), decoded when read, and rows given by a caller enter
through from_rows, which encodes each row once with encode_weight_index.
Every function that takes a permutation (admissibility_failure,
blocks_of and the conversions of representation) takes an
AdmissiblePermutation of its table as it is, and one of another table
or any other level mapping through as_permutation, which wraps the
mapping for the table; the constructor refuses with DomainError what
is not an iterable of ints in [0, 2^32); so the admissibility pass
tests each image's range only, never its type.  Explicit tables are
only materialized for n(M+1) <= EXPLICIT_WIDTH_LIMIT.

The characterizing relation: ell' = F_n(ell) is the unique solution of

    beta(istep(ell), ell') * [iweight(ell') = istep(ell)] = alpha(istep(ell), ell).
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from math import factorial, prod
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, shown
from .indexing import (
    _decoded_rows,
    _halves,
    _require_explicit,
    alpha,
    beta_fast,
    decode_weight_index,
    encode_weight_index,
    enum_b,
    istep,
    iweight,
)
from .multinomial import ValueTable

# count_admissible refuses a table whose sum_t gamma_t * bitlen(gamma_t), a
# bound on the bits of prod_t gamma_t!, is larger.
MAX_COUNT_BITS = 2**22


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
    t = istep(table, ell)
    chi = 1 if iweight(table, ellp) == t else 0
    return beta_fast(table, t, ellp) * chi == alpha(table, t, ell)


def _canonical_mapping(table: ValueTable) -> memoryview:
    """F_n's explicit mapping as a read-only array('I') view, cached once
    per table (explicit-width only) and shared by every caller.

    IB_{n,0}, IB_{n,1}, ... in level order: class t is each high half a
    that reaches it, in order, joined to every low half b whose code
    completes class t's code.
    """
    _require_explicit(table.width)
    cached = table._cache.get("canonical_mapping")
    if cached is not None:
        return cached
    hi, lo, shift = _halves(table, table.chunk_codes, sum)
    lows = defaultdict(list)  # low halves by code, in level order
    for b, code in enumerate(lo):
        lows[code].append(b)
    cls = table._class_by_code  # class codes in t order
    reach = [[] for _ in cls]  # the high halves that reach each class, in order
    for a, high in enumerate(hi):
        for low in lows:
            reach[cls[high + low]].append(a)
    mapping = array("I")
    for code, heads in zip(cls, reach):
        for a in heads:
            mapping.extend(map((a << shift).__or__, lows[code - hi[a]]))
    cached = table._cache["canonical_mapping"] = memoryview(mapping).toreadonly()
    return cached


def _canonical_inverse(table: ValueTable) -> array:
    """F_n^{-1} as an array('I'), scattered from F_n: inv[F_n(ell)] = ell."""
    inv = array("I", [0]) * table.num_indices
    for ell, ellp in enumerate(_canonical_mapping(table)):
        inv[ellp] = ell
    return inv


class AdmissiblePermutation:
    """Explicit admissible permutation and its representation: the level
    mapping pi, with row ell = decode(pi(ell)) over columns 1..n.

    block_perms[t] is the 1-based rank permutation phi_t with
    mapping[enum_a(t, s)] = enum_b(t, phi_t(s)), computed on each read.
    """

    def __init__(self, table: ValueTable, mapping: Iterable[int]):
        """Keeps mapping if it is a read-only array('I') view, as the
        cached F_n is, and copies it into one otherwise; DomainError if
        it is not an iterable of ints in [0, 2^32) or the table is wider
        than EXPLICIT_WIDTH_LIMIT.  Admissibility is not checked here."""
        _require_explicit(table.width)
        self.table = table
        self.n = table.n
        frozen = isinstance(mapping, memoryview) and mapping.readonly
        if not (frozen and mapping.format == "I"):
            try:  # iter: array() would read bytes as raw machine words
                mapping = memoryview(array("I", iter(mapping))).toreadonly()
            except (TypeError, OverflowError) as e:
                raise DomainError(f"a level mapping holds ints in [0, 2^32): {e}") from None
        self.mapping = mapping

    @classmethod
    def from_rows(cls, table: ValueTable, rows: Iterable[Sequence[int]]):
        """The mapping whose rows are rows, each encoded once by
        encode_weight_index; DomainError on a malformed row (not n
        outcome ranks).  Admissibility is not checked here."""
        _require_explicit(table.width)
        model, n = table.model, table.n
        try:
            rows = iter(rows)
        except TypeError:
            raise DomainError(f"rows must be an iterable of rows, got {shown(rows)}") from None
        levels = array("I")
        for ell, row in enumerate(rows):
            try:
                ranks = tuple(row)  # TypeError: row is not iterable
                level = encode_weight_index(model, ranks)
            except (TypeError, DomainError):
                ranks = ()  # refused below, as n >= 1
            if len(ranks) != n:
                raise DomainError(
                    f"row {ell} is {shown(row)}, not {n} outcome ranks in [1, {model.m}]"
                )
            levels.append(level)
        return cls(table, levels)

    @property
    def block_perms(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(blocks_of(self.table, self.mapping))

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(_decoded_rows(self.table, self.mapping))

    def row(self, ell: int) -> Tuple[int, ...]:
        return decode_weight_index(self.table.model, self.n, self(ell))

    def entry(self, i: int, ell: int) -> int:
        """IR(i, ell): outcome rank of summand i at level ell (i is 1-based)."""
        r = self.row(ell)
        if type(i) is not int or not 1 <= i <= self.n:
            raise DomainError(f"summand index {shown(i)} out of range [1, {self.n}]")
        return r[i - 1]

    def __call__(self, ell: int) -> int:
        if type(ell) is not int or not 0 <= ell < len(self.mapping):
            raise DomainError(f"level index {shown(ell)} out of range [0, {len(self.mapping)})")
        return self.mapping[ell]

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mapping == other.mapping

    def __repr__(self):
        return f"AdmissiblePermutation(n={self.n}, size={len(self.mapping)})"


def make_admissible(table: ValueTable, block_perms) -> AdmissiblePermutation:
    """Assemble the admissible permutation with the given per-class ranks."""
    _require_explicit(table.width)
    try:
        blocks = list(block_perms)
    except TypeError:
        raise DomainError(
            f"block permutations must be a sequence, got {type(block_perms).__name__}"
        ) from None
    if len(blocks) != table.T + 1:
        raise DomainError(
            f"need {table.T + 1} block permutations, got {len(blocks)}"
        )
    for t, (b, g) in enumerate(zip(blocks, table.gammas)):
        try:
            ranks = blocks[t] = tuple(b)
        except TypeError:  # not iterable; every class has gamma_t >= 1
            ranks = ()
        if not all(type(r) is int for r in ranks) or (
            sorted(ranks) != list(range(1, g + 1))
        ):
            raise DomainError(
                f"block {t} must be a permutation of 1..{g}, got {shown(b)}"
            )
    canon = _canonical_mapping(table)
    smc = table.smc
    return AdmissiblePermutation(
        table,
        (canon[start + rank - 1] for start, b in zip(smc, blocks) for rank in b),
    )


def canonical_permutation(table: ValueTable) -> AdmissiblePermutation:
    """F_n as an explicit table: identity ranks in every class."""
    return AdmissiblePermutation(table, _canonical_mapping(table))


PermLike = Union[AdmissiblePermutation, Iterable[int]]


def as_permutation(table: ValueTable, perm: PermLike) -> AdmissiblePermutation:
    """perm itself if it is an AdmissiblePermutation of table, else the one
    over the level mapping perm, or over perm's mapping if it belongs to
    another table (DomainError if perm is no such mapping; see the
    constructor, which keeps a read-only mapping without a copy)."""
    if isinstance(perm, AdmissiblePermutation):
        if perm.table is table:
            return perm
        perm = perm.mapping
    return AdmissiblePermutation(table, perm)


def blocks_of(table: ValueTable, perm: PermLike) -> List[Tuple[int, ...]]:
    """Recover the per-class rank permutations of an admissible mapping.

    phi_t(s) = F_n^{-1}(pi(SMC(t) + s - 1)) - SMC(t) + 1.
    """
    perm = as_permutation(table, perm)
    reason = admissibility_failure(table, perm)
    if reason is not None:
        raise DomainError(f"mapping is not admissible: {reason}")
    inv = _canonical_inverse(table)
    smc = table.smc
    return [
        tuple(inv[ellp] - smc[t] + 1 for ellp in perm.mapping[smc[t]:smc[t + 1]])
        for t in range(table.T + 1)
    ]


def admissibility_failure(table: ValueTable, perm: PermLike) -> Optional[str]:
    """None if admissible, else a one-line reason, from one pass in level
    order that reports the first class mismatch only if no range or
    bijection fault follows it."""
    mapping = as_permutation(table, perm).mapping
    num = table.num_indices
    if len(mapping) != num:
        return f"mapping has {len(mapping)} entries, expected {num}"
    hi, lo, shift = _halves(table, table.chunk_codes, sum)
    mask = (1 << shift) - 1
    smc = table.smc
    seen = bytearray(num)
    mismatch = None
    for t, code in enumerate(table._class_by_code):
        for ell, ellp in enumerate(mapping[smc[t]:smc[t + 1]], smc[t]):
            if ellp >= num:
                return f"pi({ell}) = {ellp} is out of range [0, {num})"
            if seen[ellp]:
                return f"not a bijection: {ellp} hit twice (second time at ell={ell})"
            seen[ellp] = 1
            if hi[ellp >> shift] + lo[ellp & mask] != code and mismatch is None:
                mismatch = (
                    f"class mismatch at ell={ell}: row sum of pi(ell) is in "
                    f"class {iweight(table, ellp)}, expected istep={t}"
                )
    return mismatch


def count_admissible(table: ValueTable) -> int:
    """prod_t gamma_{n,t}!  (exact big integer), within MAX_COUNT_BITS."""
    bits = sum(g * g.bit_length() for g in table.gammas)
    if bits > MAX_COUNT_BITS:
        raise DomainError(
            f"count at n = {table.n} may need {bits} bits, "
            f"more than MAX_COUNT_BITS = {MAX_COUNT_BITS}"
        )
    return prod(factorial(g) for g in table.gammas)


def random_admissible(table: ValueTable, seed: int) -> AdmissiblePermutation:
    """Uniformly random admissible permutation from a seeded generator."""
    canon = _canonical_mapping(table)
    rng = _rng(seed)
    mapping = array("I")
    # shuffle moves positions, not values: shuffling a class's slice of
    # F_n is applying a shuffled rank permutation to it
    for lo, hi in zip(table.smc, table.smc[1:]):
        block = canon[lo:hi].tolist()
        rng.shuffle(block)
        mapping.extend(block)
    return AdmissiblePermutation(table, memoryview(mapping).toreadonly())


def _rng(seed: int) -> random.Random:
    """random.Random(seed), for an int seed only."""
    if type(seed) is not int:
        raise DomainError(f"seed must be an integer, got {shown(seed)}")
    return random.Random(seed)
