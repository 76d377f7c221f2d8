"""Level-index machinery over the 2^(n(M+1)) outcome sequences.

Conventions, fixed once and used everywhere:

* A level index ell ranges over [0, 2^(n(M+1))).  Its bits are numbered
  1..n(M+1) from the most significant end, and chunk i (1 <= i <= n) is
  the i-th group of M+1 bits, so chunk 1 sits at the most significant
  position.  Bit position zeta lies in chunk i = ceil(zeta/(M+1)) at
  within-chunk offset p = zeta - (i-1)(M+1).
* decode maps ell to the outcome ranks (s_1, ..., s_n) of its chunks;
  increasing ell is exactly lexicographic order on decoded sequences.
  A level also splits into a high half-row (its first n//2 chunks) and
  a low one (_half_rows), and the explicit maps read levels that way:
  _decoded_rows decodes a run of levels and _row_levels encodes rows.
* iweight(ell) is the value class of the decoded sum (the weight-side
  class), looked up by the sum of its chunks' lattice codes (see
  multinomial); weight_classes adds a code per half-row instead.
  istep(ell) is the unique t with SMC(t) <= ell < SMC(t+1) (the
  step-side class).  is_n / is_star are the corresponding class values;
  is_star over ell = 0..m^n-1 is the sorted rearrangement of is_n.
* alpha(t, xi)  = |{ell in [0, xi] : istep(ell)  = t}|   (closed form),
  beta(t, xi)   = |{ell in [0, xi] : iweight(ell) = t}|.
  Both count over the inclusive range {0, ..., xi}.
* IA_{n,t} = {ell : istep(ell) = t} is the contiguous block
  [SMC(t), SMC(t+1)); IB_{n,t} = {ell : iweight(ell) = t}; enum_a and
  enum_b return their s-th smallest elements (s is 1-based).

beta has two implementations.  beta_bruteforce scans all of [0, xi], so
it is refused above EXPLICIT_WIDTH_LIMIT like every explicit map.
beta_fast ranks xi in the counting loop, and enum_b unranks s in the
same loop: ranking and unranking multiset permutations are one descent
run in two directions.  The loop fixes the chunks one at a time, most
significant first, and carries every class-t composition that still
extends the fixed prefix together with its number of completions.  At
each chunk one pass adds the class-t completions of every chunk value
below the next chunk to one running count: ranking takes that chunk
from xi, and unranking stops at the value whose completions bring the
count to s.  So both directions hold the same state at every depth.
The class is known only through the tau1 oracle: each beta_fast or
enum_b call (so each f_perm or inv_f) makes exactly one bulk tau1 scan
over K_n (|K_n| counted queries) and then only counts, so the query
total is polynomial in n for fixed M.

Every walk but beta_fast_trace also keeps one checkpoint per class in
the table's cache: its state on entering the last chunk, or where the
class ran out.  A later rank of the same class whose top chunks match
starts from there, so ranks of neighbouring levels (an exhaustive
sweep, gamma_relation after inv_f, or inv_f after f_perm) count only
what differs.  It still pays its bulk tau1 scan; table.stats.bigint_ops
counts only the arithmetic it does.  Unranking and beta_fast_trace
always walk from chunk 1.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError
from .exactnum import ExactScalar
from .multinomial import ValueTable
from .outcomes import OutcomeModel


# Widest n(M+1) at which anything scans or materializes all 2^width levels.
EXPLICIT_WIDTH_LIMIT = 24


def _require_explicit(width: int, what: str = "explicit permutation tables"):
    if width > EXPLICIT_WIDTH_LIMIT:
        raise DomainError(
            f"{what} need n(M+1) <= {EXPLICIT_WIDTH_LIMIT}, got width {width}; "
            "use the lazy rule (beta_fast, f_perm/inv_f)"
        )


def _check_level(table: ValueTable, ell: int, name: str = "level index"):
    if not isinstance(ell, int) or not 0 <= ell < table.num_indices:
        raise DomainError(
            f"{name} {ell!r} out of range [0, {table.num_indices})"
        )


def decode_weight_index(model: OutcomeModel, n: int, ell: int) -> Tuple[int, ...]:
    """Outcome ranks (s_1, ..., s_n) of the n chunks of ell; chunk 1 first."""
    mp1 = model.M + 1
    if not isinstance(ell, int) or not 0 <= ell < model.m**n:
        raise DomainError(f"level index {ell!r} out of range [0, {model.m ** n})")
    mask = model.m - 1
    lut = model._index_of_chunk
    return tuple(lut[(ell >> ((n - i) * mp1)) & mask] for i in range(1, n + 1))


def encode_weight_index(model: OutcomeModel, svec: Sequence[int]) -> int:
    """Inverse of decode: pack outcome ranks back into a level index."""
    mp1 = model.M + 1
    ell = 0
    for s in svec:
        ell = (ell << mp1) | model.chunk_of_index(s)
    return ell


def iweight(table: ValueTable, ell: int) -> int:
    """Value class of the decoded sum at ell (weight side): the class of
    the sum of its chunks' lattice codes."""
    _check_level(table, ell)
    codes = table.codes
    svec = decode_weight_index(table.model, table.n, ell)
    return table._class_by_code[sum([codes[s - 1] for s in svec])]


def istep(table: ValueTable, ell: int) -> int:
    """The unique t with SMC(t) <= ell < SMC(t+1) (step side)."""
    _check_level(table, ell)
    return bisect_right(table.smc, ell) - 1


def is_n(table: ValueTable, ell: int) -> ExactScalar:
    """Value of the decoded sum at ell."""
    return table.values[iweight(table, ell)]


def is_star(table: ValueTable, ell: int) -> ExactScalar:
    """ell-th smallest sum value with multiplicity: the sorted rearrangement."""
    return table.values[istep(table, ell)]


def tau2(model: OutcomeModel, n: int, s: int, ell: int, b: int) -> int:
    """How many chunks i in (b, n] of ell decode to outcome rank s."""
    if not isinstance(b, int) or not 0 <= b <= n:
        raise DomainError(f"chunk bound {b!r} out of range [0, {n}]")
    model._check_rank(s)
    svec = decode_weight_index(model, n, ell)
    return sum(1 for i in range(b, n) if svec[i] == s)


def alpha(table: ValueTable, t: int, xi: int) -> int:
    """|IA_{n,t} intersect {0..xi}|: clipped overlap with [SMC(t), SMC(t+1))."""
    table._check_class(t)
    _check_level(table, xi, "cutoff xi")
    return max(0, min(xi + 1, table.smc[t + 1]) - table.smc[t])


def beta_bruteforce(table: ValueTable, t: int, xi: int) -> int:
    """|IB_{n,t} intersect {0..xi}| by scanning every level index."""
    _require_explicit(table.width, "brute-force beta scans")
    table._check_class(t)
    _check_level(table, xi, "cutoff xi")
    return sum(1 for ell in range(xi + 1) if iweight(table, ell) == t)


@dataclass
class BetaWalk:
    """Per-position breakdown of one fast beta evaluation."""

    t: int
    xi: int
    total: int
    self_term: int
    steps: List[Tuple[int, int]]  # (zeta, contribution) at each 1-bit of xi


def beta_fast(table: ValueTable, t: int, xi: int) -> int:
    """beta by ranking xi in the counting loop; one bulk tau1 scan."""
    table._check_class(t)
    _check_level(table, xi, "cutoff xi")
    return _count_walk(table, t, xi=xi)[1]


def beta_fast_trace(table: ValueTable, t: int, xi: int) -> BetaWalk:
    table._check_class(t)
    _check_level(table, xi, "cutoff xi")
    steps: Dict[int, int] = {}
    total = _count_walk(table, t, xi=xi, steps=steps)[1]
    return BetaWalk(t, xi, total, total - sum(steps.values()), list(steps.items()))


def _count_walk(
    table: ValueTable,
    t: int,
    xi: Optional[int] = None,
    s: int = 0,
    steps: Optional[Dict[int, int]] = None,
) -> Tuple[int, int]:
    """The counting loop over the class-t compositions, chunk by chunk.

    At every chunk one pass runs over the chunk values c below the next
    chunk cx of the level and adds the class-t completions of each to
    one running count.  Rank (xi given): cx is xi's chunk, so the count
    ends as the class-t levels below xi; a dict passed as steps also
    receives each c's count under the 1-bit zeta of cx where c first
    differs from it, zeros included once the class has run out.  Unrank
    (xi None): the pass stops at the first c whose completions bring the
    count to s or more, and that c becomes cx.

    Returns (level walked, count): the count is beta(t, level), the
    running count plus 1 if the level lies in class t.

    An untraced walk replaces the class's checkpoint in table._cache,
    and an untraced rank resumes from it first: the walk's state on
    entering the last chunk, or where no class-t composition extends the
    prefix any more.  It holds the depth i, the top i chunks of the
    level, the count so far, the live (k, q) pairs and used, and a later
    rank whose xi has the same top i chunks starts from it, so a rank of
    the level an unrank just returned counts only its last chunk.  On
    entering the last chunk k - used is a unit vector, so at most m
    pairs are live: the checkpoints of a table hold O((T+1) m) pairs.
    Traced walks neither read nor write it.  Every call, resumed or not,
    makes the one bulk tau1 scan of the class.
    """
    model = table.model
    n = table.n
    mp1 = model.M + 1
    mask = model.m - 1
    lut = model._index_of_chunk
    stats = table.stats
    members = table._tau1_scan(t)  # one bulk tau1 scan; callers check t
    save = steps is None
    key = ("rank", t)
    record = table._cache.get(key) if save and xi is not None else None
    if record is not None and record[1] == xi >> ((n - record[0]) * mp1):
        start, ell, count, pairs, used = record
        used = list(used)
        save = False  # the checkpoint already holds this walk's state
    else:
        # (k, q) for every class-t composition k that extends the chunks
        # fixed so far, whose outcome counts are in used; q is the number
        # of ways to fill the r chunks left, the multinomial coefficient
        # of k - used.  Fixing the next chunk to outcome s1 + 1 multiplies
        # that coefficient by (k[s1] - used[s1]) / r, so the completions
        # with that next chunk are the exact sum of q * (k[s1] - used[s1])
        # over r; every carried k has k >= used.
        start, ell, count = 0, 0, 0
        pairs = list(zip(members, table.coefs[t]))
        used = [0] * model.m
    for i in range(start, n):
        r = n - i
        if save and (r == 1 or not pairs):
            table._cache[key] = (i, ell, count, pairs, tuple(used))
        if not pairs and steps is None:
            # rank walks only (an unrank walk never leaves class t): no
            # class-t level extends this prefix, so the count is final
            return xi, count
        cx = (xi >> ((r - 1) * mp1)) & mask if xi is not None else mask + 1
        for c in range(cx):
            s1 = lut[c] - 1
            u = used[s1]
            acc = sum([q * (k[s1] - u) for k, q in pairs]) // r
            stats.bigint_ops += len(pairs)
            if xi is None and s <= count + acc:
                cx = c
                break
            count += acc
            if steps is not None:
                zeta = i * mp1 + mp1 + 1 - (c ^ cx).bit_length()
                steps[zeta] = steps.get(zeta, 0) + acc
        s1 = lut[cx] - 1
        u = used[s1]
        pairs = [(k, q * (k[s1] - u) // r) for k, q in pairs if k[s1] > u]
        used[s1] = u + 1
        ell = (ell << mp1) | cx
    return ell, count + len(pairs)


def enum_a(table: ValueTable, t: int, s: int) -> int:
    """s-th smallest element of IA_{n,t}: SMC(t) + s - 1."""
    table._check_class(t)
    _check_s(table, t, s)
    return table.smc[t] + s - 1


def enum_b(table: ValueTable, t: int, s: int) -> int:
    """s-th smallest element of IB_{n,t}, by unranking s in the counting loop."""
    table._check_class(t)
    _check_s(table, t, s)
    ell, _ = _count_walk(table, t, s=s)
    if iweight(table, ell) != t:
        raise DomainError(
            f"enum_b postcondition failed: iweight({ell}) != {t}"
        )
    return ell


def _check_s(table: ValueTable, t: int, s: int):
    if not isinstance(s, int) or not 1 <= s <= table.gammas[t]:
        raise DomainError(
            f"rank {s!r} out of range [1, {table.gammas[t]}] for class {t}"
        )


def ria(table: ValueTable, t: int, ell: int) -> bool:
    """ell in IA_{n,t}?"""
    table._check_class(t)
    _check_level(table, ell)
    return table.smc[t] <= ell < table.smc[t + 1]


def rib(table: ValueTable, t: int, ell: int) -> bool:
    """ell in IB_{n,t}?"""
    table._check_class(t)
    _check_level(table, ell)
    return iweight(table, ell) == t


# -- exhaustive per-table maps (cached; table-side, no oracle counting) ------


def _half_rows(table: ValueTable):
    """Every high (first n//2 ranks) and low half-row, and the low half's
    bit width: row ell is hi[ell >> shift] + lo[ell & mask], because
    product order is level order."""
    lut = table.model._index_of_chunk
    h = table.n // 2
    shift = (table.n - h) * (table.model.M + 1)
    return list(product(lut, repeat=h)), list(product(lut, repeat=table.n - h)), shift


def _decoded_rows(table: ValueTable, levels: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    """decode(ell) for each ell of levels, as two half-row lookups."""
    hi, lo, shift = _half_rows(table)
    mask = (1 << shift) - 1
    return (hi[ell >> shift] + lo[ell & mask] for ell in levels)


def _row_levels(table: ValueTable, rows: Iterable[Sequence[int]]) -> array:
    """The level each row decodes from, by one dict lookup per half-row.

    DomainError on a malformed row: a row of the wrong length or with a
    non-rank entry misses a dict.
    """
    hi, lo, shift = _half_rows(table)
    h = len(hi[0])  # ranks in a high half-row
    hi, lo = ({ranks: code for code, ranks in enumerate(half)} for half in (hi, lo))
    levels = array("I")
    for ell, row in enumerate(rows):
        try:
            ranks = tuple(row)
            levels.append(hi[ranks[:h]] << shift | lo[ranks[h:]])
        except (KeyError, TypeError):  # TypeError: not iterable, or unhashable
            raise DomainError(
                f"row {ell} is {row!r}, not {table.n} outcome ranks in [1, {table.model.m}]"
            ) from None
    return levels


def weight_classes(table: ValueTable) -> List[int]:
    """iweight of every level index, materialized once per table.

    A level's lattice code is the sum of its chunks' codes, and a level
    is a high half-row followed by a low one, so in level order its codes
    are each high half's code plus each low half's code; each half list
    holds only about m^(n/2) codes.
    """
    _require_explicit(table.width, "explicit level tables")
    cached = table._cache.get("weight_classes")
    if cached is not None:
        return cached
    codes = table.codes
    hi, lo, _ = _half_rows(table)
    hi, lo = ([sum([codes[s - 1] for s in row]) for row in half] for half in (hi, lo))
    cls = table._class_by_code
    out = [cls[h + l] for h in hi for l in lo]
    table._cache["weight_classes"] = out
    return out


def step_classes(table: ValueTable) -> List[int]:
    """istep of every level index: class t repeated gamma_t times."""
    _require_explicit(table.width, "explicit level tables")
    cached = table._cache.get("step_classes")
    if cached is not None:
        return cached
    out = []
    for t, g in enumerate(table.gammas):
        out.extend([t] * g)
    table._cache["step_classes"] = out
    return out


def decoded_vectors(table: ValueTable) -> List[Tuple[int, ...]]:
    """decode of every level index, materialized once per table."""
    _require_explicit(table.width, "explicit level tables")
    cached = table._cache.get("decoded_vectors")
    if cached is not None:
        return cached
    # product order is level order: the first chunk varies slowest
    out = list(product(table.model._index_of_chunk, repeat=table.n))
    table._cache["decoded_vectors"] = out
    return out
