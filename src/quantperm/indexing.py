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
fixed prefix.  Each chunk is one step on the prefix's cumulative row
(0, a_0, a_0 + a_1, ..., total), a_c being the completions with next
chunk value c, in level order: a rank reads its chunk cx off xi, an
unrank bisects the row for s, and both add row[cx] to count and take
row[cx + 1] - row[cx] as total.  So both directions take the same step
and hold the same state at every depth.

The row has one of two sources, chosen per table on its first walk by
one rule, sum_{r<n} min(T + 1, |K_r|) <= max(|K_n|, ROW_BUDGET)
(_counts_by_code):

* By chunk code.  A class-t prefix with r chunks left has N_r(rest)
  completions: the r-chunk strings whose chunk codes sum to rest, class
  t's code minus the prefix's.  N_0 = {0: 1} and N_{r+1}(c) sums
  N_r(c - code) over the chunk values' codes.  The row of (r, rest),
  a_c = N_{r-1}(rest - code of c), is read from the rows, built once
  per table: they hold N_1 .. N_n, at most the rule's bound plus T + 1
  entries.  The rule's left side bounds the entries of
  N_0 .. N_{n-1}: |N_r| <= T + 1, as adding n - r copies of the least
  chunk code maps the r-chunk code sums one-to-one into the n-chunk
  ones, and |N_r| <= |K_r|, as a string's code sum depends only on its
  composition.  So under the rule the counts hold no more entries than
  K_n has compositions, or than ROW_BUDGET = 2^16 where that is more.
  It admits B at every n (3n + 1 classes, few and large), the
  two-outcome A to n = 361 (its n(n + 1)/2 entries against n + 1
  compositions), the irrational test model C to n = 37 and the M = 2
  Haar model of perfbench/inputs to n = 11.  At the budget's edge the
  rows cost tens of MB, built in a fraction of a second on the first
  walk: about 22 MB at A n = 361, 28 MB at the Haar model's n = 11.
* By pairs.  The walk carries every class-t composition that still
  extends the prefix with its number of completions, and a_c is a sum
  over them.  The row is filled only as far as the step reads it, from
  the end nearer what it reads: entries cx and cx + 1 for a rank, the
  two entries that bracket s for an unrank; a trace fills every entry
  up to cx + 1 from 0 up.  Entries not filled hold 0 below and total
  above, so the row stays sorted, and the far end's a_c is never
  summed: its share is what is left.  The rule sends a table here when
  its counts would outgrow both its compositions and the budget, so its
  classes are small and many: A from n = 362, C from n = 38 and the Haar
  model from n = 12.

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
chunk step on either source, plus one per composition product summed
into a pairs row entry.
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

# Entries of N_0 .. N_{n-1} that a table may count by chunk code whatever
# its number of compositions (_counts_by_code).
ROW_BUDGET = 1 << 16


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

    The block of ranks (count, count + total] holds the class-t levels
    that extend the prefix fixed so far, total being its class-t
    completions.  Each chunk is one step on the prefix's cumulative row
    (0, a_0, a_0 + a_1, ..., total), a_c being the completions with next
    chunk value c, in level order.  An unrank (xi None) bisects the row
    for s - count to choose cx, a rank reads cx off xi, and both add
    row[cx] to count and take row[cx + 1] - row[cx] as total.  A trace
    passes steps holding 0 at every 1-bit of xi, and for each 1-bit b of
    cx files row[base + 2^b] - row[base], the values [base, base + 2^b)
    that first differ from cx at b, base being cx with bits 0 .. b
    cleared.  Returns beta(t, xi) for a rank, which stops where class t
    runs out, and the level of rank s for an unrank.

    Only the row's source differs between the two ways of counting,
    chosen on the table's first walk (_walk_constants) and read once at
    the top of every walk:

    * by code, the source is rest, class t's code minus the prefix's.
      With r chunks left the completions are N_r(rest), the r-chunk
      strings whose chunk codes sum to rest, and the row is
      rows[r][rest].  The step then subtracts cx's code from rest.
    * by pairs, the source is (pairs, used): every class-t composition k
      that extends the prefix with q, its number of completions, and the
      prefix's outcome counts.  The row is a sum over the pairs
      (_pairs_row), filled only as far as the step reads it, from the
      end nearer what it reads: entries cx and cx + 1 for a rank (a
      trace's, every entry up to cx + 1, from 0 up) and the two entries
      that bracket s - count for an unrank.  The step then keeps each k
      that has cx's outcome left, with its completions after cx.

    Every walk starts from a state (lo, hi, count, count + total, i,
    source): at depth i, the block of levels that share its top i
    chunks, [lo, hi), and the block of ranks.  The class root is depth
    0, [0, m^n), (0, gamma_t] and class t's code, or every class-t pair
    and nothing used.  A walk starts from the deepest state of its
    class's checkpoint path in table._cache that holds it (xi in the
    level block, or s in the rank block), else from the root, and
    replaces the states below that with its own on entering each of the
    last D chunks (D the least d with m^d >= n, plus one), or the one
    state where the class ran out.  With r chunks left at most
    C(r + m - 1, m - 1) pairs are live, so a path holds at most
    C(D + m, m) - 1 pairs.  Every call makes the one bulk tau1 scan of
    the class, and table.stats.bigint_ops counts one op per step plus
    one per composition product summed into a pairs row entry.
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
    ell, _, count, total, start, source = path[-1] if path else (
        0, table.num_indices, 0, table.gammas[t], 0,
        (list(zip(members, table.coefs[t])), (0,) * (mask + 1)) if rows is None
        else sum(map(int.__mul__, members[0], table.codes)),
    )
    total -= count
    ell >>= (n - start) * mp1
    save_from = start + (j >= 0)  # a resumed walk's path already holds its start
    codes, lut = table.chunk_codes, table.model._index_of_chunk
    for i in range(start, n):
        r = n - i
        if i >= save_from and (r <= kept or not total):
            shift = r * mp1
            path.append((ell << shift, (ell + 1) << shift, count, count + total, i, source))
        if not total:
            break  # a rank's class ran out: the count is final
        if rows is None:
            pairs, used = source
            if xi is None:  # fill until two entries bracket s - count
                stop, goal = -1, s - count
                up = 2 * goal <= total
            else:  # fill entries cx and cx + 1; a trace's, every entry below
                stop = (xi >> ((r - 1) * mp1)) & mask
                up = 2 * stop < mask or steps is not None
                goal = total + 1 if up else 0  # never reached
            row = _pairs_row(pairs, used, r, total, lut, stats, up, stop, goal)
        else:
            row = rows[r][source]
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
        stats.bigint_ops += 1
        if rows is None:
            # fixing chunk value cx, outcome s1 + 1, leaves each k its
            # q * (k[s1] - used[s1]) / r completions
            s1 = lut[cx] - 1
            u = used[s1]
            live = []
            for k, q in pairs:
                if k[s1] > u:
                    live.append((k, q * (k[s1] - u) // r))
            source = live, used[:s1] + (u + 1,) + used[s1 + 1:]
        else:
            source -= codes[cx]
        ell = (ell << mp1) | cx
    return ell if xi is None else count + total


def _pairs_row(pairs, used, r, total, lut, stats, up, stop, goal):
    """The cumulative row (0, a_0, a_0 + a_1, ..., total) of a prefix
    counted by pairs, with r chunks left, filled only as far as a step
    reads it.  a_c, the completions with next chunk value c, is the sum
    of q * (k[s1] - used[s1]) over r, s1 + 1 being c's outcome: fixing
    that chunk multiplies the multinomial coefficient q of k - used by
    (k[s1] - used[s1]) / r.  The row fills from 0 up if up, else from
    the top down, and stops after value stop or at the first entry that
    reaches goal (>= goal going up, < goal going down).  Entries not
    filled hold 0 below and total above, so the row stays sorted, and
    the far end's a_c is never summed: its share is what is left of
    total.  Each product summed counts one op in stats.bigint_ops."""
    m = len(lut)
    row = [0] + [total] * m if up else [0] * m + [total]
    for c in range(m - 1) if up else range(m - 1, 0, -1):
        s1 = lut[c] - 1
        u = used[s1]
        acc = 0
        for k, q in pairs:  # a plain loop: pairs is short, often one
            acc += q * (k[s1] - u)
        stats.bigint_ops += len(pairs)
        if up:
            row[c + 1] = row[c] + acc // r
            if c == stop or row[c + 1] >= goal:
                break
        else:
            row[c] = row[c + 1] - acc // r
            if c == stop or row[c] < goal:
                break
    return row


def _counts_by_code(table: ValueTable) -> bool:
    """Do table's walks count completions by chunk code?  Yes when
    sum_{r<n} min(T + 1, |K_r|) <= max(|K_n|, ROW_BUDGET), which bounds
    the entries of N_0 .. N_{n-1}, so the counts then hold no more
    entries than the table has compositions, or than ROW_BUDGET where
    that is more.  |N_r| <= T + 1: adding n - r copies of the least
    chunk code maps the r-chunk code sums one-to-one into the n-chunk
    ones, the T + 1 classes' codes.  |N_r| <= |K_r|: an r-chunk
    string's code sum depends only on its composition.  The rule admits
    B at every n, A to n = 361 (bound 65,341), C to n = 37 and the M = 2
    Haar model of perfbench/inputs to n = 11 (bound 43,758)."""
    m, classes = table.model.m, table.T + 1
    bound = sum(min(classes, composition_count(r, m)) for r in range(table.n))
    return bound <= max(table.num_compositions, ROW_BUDGET)


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
    most the rule's bound plus T + 1 entries of m + 1 ints each: no more
    than ROW_BUDGET + T + 1 rows on a table admitted by the budget.  At
    its edge they take about 22 MB at A n = 361 and 28 MB at the M = 2
    Haar model's n = 11."""
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
