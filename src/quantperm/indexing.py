"""Level-index machinery over the 2^(n(M+1)) outcome sequences.

Conventions, fixed once and used everywhere:

* A level index ell ranges over [0, 2^(n(M+1))).  Its bits are numbered
  1..n(M+1) from the most significant end, and chunk i (1 <= i <= n) is
  the i-th group of M+1 bits, so chunk 1 sits at the most significant
  position.  Bit position zeta lies in chunk i = ceil(zeta/(M+1)) at
  within-chunk offset p = zeta - (i-1)(M+1).
* decode maps ell to the outcome ranks (s_1, ..., s_n) of its chunks;
  increasing ell is exactly lexicographic order on decoded sequences,
  and encode packs ranks back.  _halves splits a level into its first
  n//2 chunks and the rest: _decoded_rows joins the halves' ranks, and
  weight_classes, F_n and the admissibility check add their codes.
* iweight(ell) is the value class of the level's outcome sum (the
  weight-side class), looked up without decoding by the sum of its
  chunks' lattice codes (table.chunk_codes, see multinomial).
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
significant first, and keeps the prefix's block of class-t ranks
(count, count + total], total being the class-t completions of the
fixed prefix.  Ranking takes the next chunk from xi and adds the
completions of every chunk value below it to count; unranking takes
the chunk value whose share of the block holds s.  So both directions
hold the same state at every depth.

A prefix's completions are counted one of two ways, chosen per table on
its first walk by one rule, sum_{r<n} min(T + 1, |K_r|) <= |K_n|
(_counts_by_code):

* By chunk code.  A class-t prefix with r chunks left has N_r(rest)
  completions: the r-chunk strings whose chunk codes sum to rest, class
  t's code minus the prefix's.  N_0 = {0: 1} and N_{r+1}(c) sums
  N_r(c - code) over the chunk values' codes.  A chunk is one row read:
  the row of (r, rest) is (0, a_0, a_0 + a_1, ..., N_r(rest)), a_c =
  N_{r-1}(rest - code of c) with c in level order.  A rank reads its
  count and total at xi's chunk, and an unrank bisects the row for s.
  The rows, built once per table, hold N_1 .. N_n: at most the rule's
  bound plus T + 1 entries.  The rule's left side bounds the entries of
  N_0 .. N_{n-1}: |N_r| <= T + 1, as adding n - r copies of the least
  chunk code maps the r-chunk code sums one-to-one into the n-chunk
  ones, and |N_r| <= |K_r|, as a string's code sum depends only on its
  composition.  So under the rule the counts hold no more entries than
  K_n has compositions.  It admits B at every n (3n + 1 classes, few
  and large), A to n = 2, the irrational test model C to n = 4 and the
  M = 2 Haar model of perfbench/inputs to n = 8.
* By pairs.  The walk carries every class-t composition that still
  extends the prefix with its number of completions, and a chunk
  value's completions are a sum over them.  A rank sums them for every
  value below xi's chunk.  An unrank scans the chunk values from the
  end of the block nearer s, from 0 up or from m - 1 down, and stops at
  the value whose share of the block holds s; the last value scanned
  takes what is left.  Where values rarely collide the classes are
  small, and the rule sends those tables here: A from n = 3 (one
  composition a class, while its counts would hold n(n + 1)/2 entries
  against n + 1 compositions), C from n = 5 and the Haar model from
  n = 9.

The class is known only through the tau1 oracle: each beta_fast or
enum_b call (so each f_perm or inv_f) makes exactly one bulk tau1 scan
over K_n (|K_n| counted queries) and then only counts, so the query
total is polynomial in n for fixed M.  A walk by chunk code reads class
t's code from the first member the scan returns.

Every walk starts from a state: its depth, its blocks of levels and of
ranks, and rest (by code) or the compositions still live (by pairs).
Each class keeps a checkpoint path in the table's cache: the states of
its walks on entering each of the last few chunks (about log_m n of
them), or where the class ran out.  A walk resumes from the deepest
state that holds it (its level for a rank, its rank for an unrank), or
from the class root, and replaces the states below that.  So the walks
of neighbouring levels or ranks (an exhaustive sweep, f_perm over
consecutive levels, gamma_relation after inv_f, or inv_f after f_perm)
count only what differs.  A resumed walk still pays its bulk tau1 scan;
table.stats.bigint_ops counts only the arithmetic it does: one op per
row read by code, one per composition summed by pairs.
beta_fast_trace is a rank from the class root that files each count
under its 1-bit of xi, and leaves the path such a rank leaves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, shown
from .exactnum import ExactScalar
from .multinomial import ValueTable, composition_count
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
    if type(ell) is not int or not 0 <= ell < table.num_indices:
        raise DomainError(
            f"{name} {shown(ell)} out of range [0, {table.num_indices})"
        )


def decode_weight_index(model: OutcomeModel, n: int, ell: int) -> Tuple[int, ...]:
    """Outcome ranks (s_1, ..., s_n) of the n chunks of ell; chunk 1 first."""
    if type(n) is not int or n < 1:
        raise DomainError(f"sum length n must be an integer >= 1, got {shown(n)}")
    mp1 = model.M + 1
    if type(ell) is not int or ell < 0 or ell.bit_length() > n * mp1:
        raise DomainError(f"level index {shown(ell)} out of range [0, 2^{shown(n * mp1)})")
    mask = model.m - 1
    lut = model._index_of_chunk
    return tuple(lut[(ell >> ((n - i) * mp1)) & mask] for i in range(1, n + 1))


def encode_weight_index(model: OutcomeModel, svec: Sequence[int]) -> int:
    """Inverse of decode: pack outcome ranks back into a level index."""
    try:
        ranks = iter(svec)
    except TypeError:
        raise DomainError(f"outcome ranks must be a sequence, got {shown(svec)}") from None
    mp1 = model.M + 1
    ell = 0
    for s in ranks:
        ell = (ell << mp1) | model.chunk_of_index(s)
    return ell


def iweight(table: ValueTable, ell: int) -> int:
    """Value class of the outcome sum at ell (weight side): the class of
    the sum of its chunks' lattice codes, with no decode."""
    _check_level(table, ell)
    mask = table.model.m - 1
    codes = table.chunk_codes
    shifts = range(0, table.width, table.model.M + 1)
    return table._class_by_code[sum([codes[(ell >> k) & mask] for k in shifts])]


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
    svec = decode_weight_index(model, n, ell)  # checks n before b is compared with it
    if type(b) is not int or not 0 <= b <= n:
        raise DomainError(f"chunk bound {shown(b)} out of range [0, {shown(n)}]")
    model._check_rank(s)
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
    return _count_walk(table, t, xi=xi)


def beta_fast_trace(table: ValueTable, t: int, xi: int) -> BetaWalk:
    """beta(t, xi) split over the 1-bits zeta of xi, in increasing order:
    the class-t levels below xi that first differ from it at zeta, and
    the self term [iweight(xi) = t].  A rank of xi from the class root,
    it leaves the path that a beta_fast of xi from the root leaves."""
    table._check_class(t)
    _check_level(table, xi, "cutoff xi")
    _forget_path(table, t)
    steps = {z: 0 for z in range(1, table.width + 1) if xi >> (table.width - z) & 1}
    total = _count_walk(table, t, xi=xi, steps=steps)
    return BetaWalk(t, xi, total, total - sum(steps.values()), list(steps.items()))


def _count_walk(
    table: ValueTable,
    t: int,
    xi: Optional[int] = None,
    s: int = 0,
    steps: Optional[Dict[int, int]] = None,
) -> int:
    """The counting loop over the class-t levels, chunk by chunk.

    Rank (xi given): at every chunk the class-t completions of the chunk
    values c below xi's next chunk cx are added to one running count, so
    the count ends as the class-t levels below xi.  A trace passes steps
    holding 0 at every 1-bit of xi, and each c's count is added to
    steps[zeta], zeta being the 1-bit of cx where c first differs from
    it.  Unrank (xi None): s lies in the block of ranks (count,
    count + total], total being the class-t completions of the prefix,
    and cx is the chunk value whose share of the block holds s.

    A prefix's class-t completions are counted one of two ways, chosen
    on the table's first walk (_walk_constants) and read once at the top
    of every walk:

    * by code: with r chunks left they are N_r(rest), the number of
      r-chunk strings whose chunk codes sum to rest, class t's code
      minus the prefix's.  A chunk is one step on the row rows[r][rest],
      whose entry c is the completions of the values below c: an unrank
      bisects it for s - count to choose cx, a rank reads cx off xi, and
      both add row[cx] to count, take row[cx + 1] - row[cx] as total and
      subtract cx's code from rest.  For each 1-bit b of cx a trace files
      row[base + 2^b] - row[base], the values [base, base + 2^b) that
      first differ from cx at b, base being cx with bits 0 .. b cleared.
    * by pairs: the walk carries every class-t composition k that
      extends the prefix with q, its number of completions, and used,
      the prefix's outcome counts.  A chunk value's completions are the
      sum of q * (k[s1] - used[s1]) over r, and the products of the
      pass that fixes cx, divided by r, are the next q.  A rank passes
      over the values below cx.  An unrank scans from the end of the
      block nearer s: if s lies in its lower half the pass runs up from
      c = 0 and each c takes the bottom of what is left of the block,
      else down from m - 1 taking the top; it stops at the c whose
      completions hold s, and that c becomes cx.  The last c of either
      direction is not counted, its share being what is left.

    Returns beta(t, xi) for a rank, which stops where class t runs out,
    and the level of rank s for an unrank.

    Every walk starts from a state: at depth i, the block of levels that
    share its top i chunks, [lo, hi); the block of ranks (count,
    count + total], total being the class-t levels in the level block;
    i; and rest by code, or the live (k, q) pairs and used by pairs.
    The class root is depth 0, [0, m^n), (0, gamma_t] and class t's code,
    or every class-t pair and nothing used.  A walk starts from the
    deepest state of its class's checkpoint path in table._cache that
    holds it (xi in the level block, or s in the rank block), else from
    the root, and replaces the states below that with its own on
    entering each of the last D chunks (D the least d with m^d >= n,
    plus one), or the one state where the class ran out.  With r chunks
    left at most C(r + m - 1, m - 1) pairs are live, so a path holds at
    most C(D + m, m) - 1 pairs.  Every call makes the one bulk tau1 scan
    of the class, and table.stats.bigint_ops counts each row read by
    code and each product by pairs.
    """
    n = table.n
    mp1 = table.model.M + 1
    mask = table.model.m - 1
    stats = table.stats
    members = table._tau1_scan(t)  # one bulk tau1 scan; callers check t
    path = table._cache.setdefault(("rank", t), [])
    # a rank looks up xi in fields 0 and 1 of a state, its level block,
    # and an unrank s - 1 in fields 2 and 3, its rank block
    lo, target = (0, xi) if xi is not None else (2, s - 1)
    j = len(path) - 1
    while j >= 0 and not path[j][lo] <= target < path[j][lo + 1]:
        j -= 1
    del path[j + 1:]
    kept, rows = table._cache.get("walk") or _walk_constants(table)
    if rows:
        # by chunk code: rest is class t's code minus the prefix's, and with
        # r chunks left rows[r][rest][c] counts the completions below value c
        ell, _, count, total, start, rest = path[-1] if path else (
            0, table.num_indices, 0, table.gammas[t], 0,
            sum(map(int.__mul__, members[0], table.codes)),
        )
        total -= count
        ell >>= (n - start) * mp1
        save_from = start + (j >= 0)  # a resumed walk's path already holds its start
        codes = table.chunk_codes
        for i in range(start, n):
            r = n - i
            if i >= save_from and (r <= kept or not total):
                shift = r * mp1
                path.append((ell << shift, (ell + 1) << shift, count, count + total, i, rest))
            if not total:
                break  # a rank's class ran out: the count is final
            row = rows[r][rest]
            if xi is None:
                cx = bisect_left(row, s - count) - 1
            else:
                cx = (xi >> ((r - 1) * mp1)) & mask
                if steps:  # a trace's, holding every 1-bit of xi
                    for b in range(cx.bit_length()):
                        if cx >> b & 1:  # file the values below cx that first differ at b
                            base = cx >> (b + 1) << (b + 1)
                            steps[i * mp1 + mp1 - b] += row[base + (1 << b)] - row[base]
            count += row[cx]
            total = row[cx + 1] - row[cx]
            rest -= codes[cx]
            stats.bigint_ops += 1
            ell = (ell << mp1) | cx
        return ell if xi is None else count + total
    lut = table.model._index_of_chunk
    # pairs holds (k, q) for every class-t composition k that extends the
    # chunks fixed so far, whose outcome counts are in used; q is the number
    # of ways to fill the r chunks left, the multinomial coefficient of
    # k - used.  Fixing the next chunk to outcome s1 + 1 multiplies that
    # coefficient by (k[s1] - used[s1]) / r, so the completions with that
    # next chunk are the exact sum of q * (k[s1] - used[s1]) over r; every
    # carried k has k >= used.
    ell, _, count, total, start, pairs, used = path[-1] if path else (
        0, table.num_indices, 0, table.gammas[t], 0,
        list(zip(members, table.coefs[t])), (0,) * (mask + 1),
    )
    total -= count
    ell >>= (n - start) * mp1
    used = list(used)
    save_from = start + (j >= 0)  # a resumed walk's path already holds its start
    for i in range(start, n):
        r = n - i
        if i >= save_from and (r <= kept or not pairs):
            if xi is not None:
                total = sum([q for _, q in pairs])
            shift = r * mp1
            path.append(
                (ell << shift, (ell + 1) << shift, count, count + total, i, pairs, tuple(used))
            )
        if not pairs:
            # rank walks only (an unrank walk never leaves class t): no
            # class-t level extends this prefix, so the count is final
            break
        if xi is None:
            # scan from the end of (count, count + total] nearer s
            down = 2 * (s - count) > total
            order = range(mask, -1, -1) if down else range(mask + 1)
            for cx in order:
                s1 = lut[cx] - 1
                u = used[s1]
                vals = [q * (k[s1] - u) for k, q in pairs]
                if cx == order[-1]:
                    break
                acc = sum(vals) // r
                stats.bigint_ops += len(pairs)
                if down:
                    if s > count + total - acc:
                        count += total - acc
                        total = acc
                        break
                elif s <= count + acc:
                    total = acc
                    break
                else:
                    count += acc
                total -= acc
            pairs = [(k, v // r) for (k, _), v in zip(pairs, vals) if v]
        else:
            cx = (xi >> ((r - 1) * mp1)) & mask
            # plain loops, not comprehensions: pairs is short here, often
            # one or two, and each comprehension runs in a frame of its own
            for c in range(cx):
                s1 = lut[c] - 1
                u = used[s1]
                acc = 0
                for k, q in pairs:
                    acc += q * (k[s1] - u)
                acc //= r
                stats.bigint_ops += len(pairs)
                count += acc
                if steps:  # a trace's, holding every 1-bit of xi
                    steps[i * mp1 + mp1 + 1 - (c ^ cx).bit_length()] += acc
            s1 = lut[cx] - 1
            u = used[s1]
            live = []
            for k, q in pairs:
                if k[s1] > u:
                    live.append((k, q * (k[s1] - u) // r))
            pairs = live
        used[s1] = u + 1
        ell = (ell << mp1) | cx
    return ell if xi is None else count + len(pairs)


def _counts_by_code(table: ValueTable) -> bool:
    """Do table's walks count completions by chunk code?  Yes when
    sum_{r<n} min(T + 1, |K_r|) <= |K_n|, which bounds the entries of
    N_0 .. N_{n-1}, so the counts then hold no more entries than the
    table has compositions.  |N_r| <= T + 1: adding n - r copies of the
    least chunk code maps the r-chunk code sums one-to-one into the
    n-chunk ones, the T + 1 classes' codes.  |N_r| <= |K_r|: an r-chunk
    string's code sum depends only on its composition.  The rule admits
    B at every n, A to n = 2, C to n = 4 and the M = 2 Haar model of
    perfbench/inputs to n = 8."""
    m, classes = table.model.m, table.T + 1
    bound = sum(min(classes, composition_count(r, m)) for r in range(table.n))
    return bound <= table.num_compositions


def _chunk_counts(codes: Sequence[int], depth: int) -> List[Dict[int, int]]:
    """N_0 .. N_{depth-1}: N_r maps each code to the number of r-chunk
    strings whose chunk codes sum to it.  N_0 = {0: 1}, and N_{r+1}(c)
    is the sum of N_r(c - code) over the chunks' codes.  _walk_constants
    keeps N_0 .. N_n only as the code walk's cumulative rows."""
    counts = [{0: 1}]
    for _ in range(1, depth):
        grown: Dict[int, int] = {}
        for c, k in counts[-1].items():
            for code in codes:
                grown[c + code] = grown.get(c + code, 0) + k
        counts.append(grown)
    return counts


def _walk_constants(table: ValueTable) -> Tuple[int, Optional[List[Dict[int, Tuple[int, ...]]]]]:
    """(D, rows) of table's walks, kept in its cache from its first walk
    on: D is the least d with m^d >= n, plus one, and rows is None unless
    _counts_by_code admits the table.  Then rows[r] (1 <= r <= n) maps
    each code rest with N_r(rest) > 0 to its cumulative row (0, a_0,
    a_0 + a_1, ..., N_r(rest)), a_c = N_{r-1}(rest - code of c) with c
    in level order; rows[0] is empty.  So the rows hold N_1 .. N_n, at
    most the rule's bound plus T + 1 entries of m + 1 ints each."""
    kept = -(-(table.n - 1).bit_length() // (table.model.M + 1)) + 1
    rows = None
    if _counts_by_code(table):
        codes = table.chunk_codes
        counts = _chunk_counts(codes, table.n + 1)
        rows = [{}]
        for below, here in zip(counts, counts[1:]):
            level = {}
            for rest in here:  # plain loops: cheaper than accumulate here
                row = [0]
                for code in codes:
                    row.append(row[-1] + below.get(rest - code, 0))
                level[rest] = tuple(row)
            rows.append(level)
    table._cache["walk"] = kept, rows
    return kept, rows


def _forget_path(table: ValueTable, t: int):
    """Drop class t's checkpoint path, so its next walk starts from the class root."""
    table._cache.pop(("rank", t), None)


def enum_a(table: ValueTable, t: int, s: int) -> int:
    """s-th smallest element of IA_{n,t}: SMC(t) + s - 1."""
    table._check_class(t)
    _check_s(table, t, s)
    return table.smc[t] + s - 1


def enum_b(table: ValueTable, t: int, s: int) -> int:
    """s-th smallest element of IB_{n,t}, by unranking s in the counting loop."""
    table._check_class(t)
    _check_s(table, t, s)
    ell = _count_walk(table, t, s=s)
    if iweight(table, ell) != t:
        raise DomainError(
            f"enum_b postcondition failed: iweight({ell}) != {t}"
        )
    return ell


def _check_s(table: ValueTable, t: int, s: int):
    if type(s) is not int or not 1 <= s <= table.gammas[t]:
        raise DomainError(
            f"rank {shown(s)} out of range [1, {table.gammas[t]}] for class {t}"
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


# -- exhaustive per-table maps (table-side, no oracle counting) --------------


def _halves(table: ValueTable, per_chunk: Sequence, join) -> Tuple[list, list, int]:
    """(hi, lo, shift): level ell is high half ell >> shift (its first n//2
    chunks) then low half ell & (2^shift - 1); hi and lo join per_chunk
    over every half's chunks, in level order (product order)."""
    h = table.n // 2
    shift = (table.n - h) * (table.model.M + 1)
    hi, lo = ([join(half) for half in product(per_chunk, repeat=r)] for r in (h, table.n - h))
    return hi, lo, shift


def _decoded_rows(table: ValueTable, levels: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    """decode(ell) for each ell of levels: its high then low half's ranks."""
    hi, lo, shift = _halves(table, table.model._index_of_chunk, tuple)
    mask = (1 << shift) - 1
    return (hi[ell >> shift] + lo[ell & mask] for ell in levels)


def weight_classes(table: ValueTable) -> List[int]:
    """iweight of every level index, computed on each call from the codes
    of its halves."""
    _require_explicit(table.width, "explicit level tables")
    hi, lo, _ = _halves(table, table.chunk_codes, sum)
    cls = table._class_by_code
    return [cls[a + b] for a in hi for b in lo]


def _step_classes(table: ValueTable) -> Iterator[int]:
    """istep of every level, streamed: t over its step block [SMC(t), SMC(t+1))."""
    return chain.from_iterable(map(repeat, range(table.T + 1), table.gammas))


def step_classes(table: ValueTable) -> List[int]:
    """istep of every level index, computed on each call."""
    _require_explicit(table.width, "explicit level tables")
    return list(_step_classes(table))


def decoded_vectors(table: ValueTable) -> List[Tuple[int, ...]]:
    """decode of every level index, in level order, computed on each call."""
    _require_explicit(table.width, "explicit level tables")
    return list(_decoded_rows(table, range(table.num_indices)))
