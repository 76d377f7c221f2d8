"""Value classes of n-fold outcome sums and their multinomial counts.

For a model with m outcomes and a sum length n, every composition
k = (k_1, ..., k_m) of n (k_s = how many draws hit outcome s) produces
the value sum_s k_s * o_s.  Distinct compositions can collide; the value
table groups them into classes t = 0..T_n ordered by increasing value,
with gamma_{n,t} = sum of multinomial coefficients over the class and
SMC_n(t) = sum_{u<t} gamma_{n,u} the strict cumulative count.  SMC runs
from SMC(0) = 0 to SMC(T_n + 1) = m^n and the class cdf at value class t
is SMC(t)/m^n (strict) or SMC(t+1)/m^n (inclusive).

The table is built on an integer lattice.  With D the lcm of the
outcomes' denominators, o_s = (A_s + B_s sqrt(d)) / D for integers A_s,
B_s, so a composition's value is the integer pair (sum k_s A_s,
sum k_s B_s), packed into one int.  The build groups K_n by that int
and sorts only the distinct classes, by one exact integer key
(_lattice_key) for every model: with no radical part (every B_s = 0)
the key of the pair (a, 0) is a 2^p.  One ExactScalar is made per
class; none per composition.  A table wider than MAX_WIDTH bits or of
more than MAX_COMPOSITIONS compositions is refused before enumeration.

That int is also the class's lookup key: the table keeps each outcome's
lattice code (codes), the same codes indexed by chunk value
(chunk_codes) and a dict from class code to t, so a composition's class
is the class of sum_s k_s codes[s], and a level's class is the class of
the sum of its chunks' codes, read off the level without decoding it.
That sum is taken over bit planes, not chunks (code_planes): a chunk's
code is a multilinear function of its M + 1 bits, so the sum over the n
chunks needs one AND and one bit count per nonempty set of bits, m - 1
in all, whatever n is.

tau1 is the class-membership oracle: tau1(k, t) = 1 iff composition k
lies in class t.  Algorithms downstream are measured by how many tau1
queries they issue, so every query (including bulk scans over all of
K_n) passes through an OracleStats tally.  Direct table accessors that
bypass tau1 (class_of, members) exist for table-side validation and are
deliberately not counted.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, isqrt, lcm, prod
from typing import Iterator, Sequence, Tuple

from .errors import DomainError, shown
from .exactnum import ExactScalar
from .outcomes import OutcomeModel

Composition = Tuple[int, ...]

# Largest |K_n| build_value_table enumerates.  It admits the 8-outcome
# Haar model of perfbench/inputs/haar_m2.json at n = 21 (width 63,
# 1,184,040 compositions, about 585 MB peak RSS for the whole table)
# and refuses n = 22 (1,560,780).
MAX_COMPOSITIONS = 1_200_000

# Widest n(M+1) build_value_table accepts.  Every gamma, SMC entry and
# multinomial coefficient is below m^n = 2^width, so this bounds the bit
# size of every table integer: builtin A (one bit per draw) builds at
# n = 1024 in about 0.1 s on a 2-vCPU host, where n = 4096 took 7 s and
# n = 100000 did not finish.
MAX_WIDTH = 1024


def multinomial_coefficient(n: int, k: Sequence[int]) -> int:
    """n! / (k_1! ... k_m!) for a composition k of n."""
    try:
        key = tuple(k)
    except TypeError:
        raise DomainError(f"composition must be an iterable of ints, got {shown(k)}") from None
    if type(n) is not int:
        raise DomainError(f"sum length n must be an integer, got {shown(n)}")
    if any(type(x) is not int or x < 0 for x in key):
        raise DomainError(f"composition entries must be integers >= 0, got {shown(key)}")
    if sum(key) != n:
        raise DomainError(f"composition {shown(key)} sums to {shown(sum(key))}, expected {shown(n)}")
    return factorial(n) // prod(factorial(x) for x in key)


def enumerate_compositions(n: int, m: int) -> Iterator[Composition]:
    """All compositions of n into m parts, lexicographically increasing.

    Each is read off the places of m - 1 bars among n + m - 1 slots: the
    parts are the runs of slots between consecutive bars, and the bars'
    places in lex order give the parts in lex order, at a call depth
    that does not grow with m.  The slots are held in memory, so more
    than MAX_COMPOSITIONS of them are refused when called, not when
    read; an admitted table never needs more, as n + m - 1 <= |K_n|
    for m >= 2."""
    _check_parts(n, m)
    end = n + m - 1
    if end > MAX_COMPOSITIONS:
        raise DomainError(
            f"compositions of n = {shown(n)} into m = {shown(m)} parts need "
            f"n + m - 1 = {shown(end)} slots, more than MAX_COMPOSITIONS = {MAX_COMPOSITIONS}"
        )
    return _compositions(end, m)


def _compositions(end: int, m: int) -> Iterator[Composition]:
    """The compositions of end - m + 1 into m parts, from their bars."""
    for bars in combinations(range(end), m - 1):
        k, a = [], -1
        for b in bars:
            k.append(b - a - 1)
            a = b
        k.append(end - a - 1)
        yield tuple(k)


def composition_count(n: int, m: int) -> int:
    """|K_n| = C(n+m-1, m-1)."""
    _check_parts(n, m)
    return comb(n + m - 1, m - 1)


def _check_parts(n: int, m: int):
    if not (type(n) is int and type(m) is int) or m < 1 or n < 0:
        raise DomainError(f"need m >= 1 parts and n >= 0, got m={shown(m)}, n={shown(n)}")


@dataclass
class OracleStats:
    """Deterministic query tallies."""

    tau1_queries: int = 0
    bigint_ops: int = 0

    def reset(self):
        self.tau1_queries = 0
        self.bigint_ops = 0

    def snapshot(self) -> "OracleStats":
        return OracleStats(self.tau1_queries, self.bigint_ops)

    def delta(self, earlier: "OracleStats") -> "OracleStats":
        return OracleStats(
            self.tau1_queries - earlier.tau1_queries,
            self.bigint_ops - earlier.bigint_ops,
        )


class ValueTable:
    """Sorted value classes of the n-fold sums of one model.

    Fields: values[t] (exact, strictly increasing), members[t] (the
    compositions in class t, lex order), coefs[t] (their multinomial
    coefficients, aligned with members[t]), gammas[t], smc[0..T+1],
    with T = len(values) - 1.  width = n*(M+1) and
    num_indices = 2^width = m^n.  codes[s - 1] is outcome s's lattice
    code, chunk_codes[c] is the code of the outcome whose pattern has
    chunk value c, and _class_by_code maps each class's code,
    sum_s k_s codes[s - 1] for any member k, to t.

    code_planes = (unit, base, terms) sums the chunk codes of a level
    (indexing.iweight).  With w_S the subset (Moebius) transform of
    chunk_codes over the sets S of chunk bits, chunk_codes[c] is the sum
    of w_S over the S whose bits are all set in c.  So a level's code
    sum is n w_{} plus, over the nonempty S, w_S times the number of
    chunks with every bit of S set: the bit count of plane S, the AND
    over b in S of (ell >> b) & unit, where unit has the lowest bit of
    every chunk set.  base is n w_{}, and terms lists (low, b, w_S) for
    S = 1 .. m - 1, plane S being plane low AND ell >> b, b the top bit
    of S and low = S without it (plane 0 is unit).
    """

    def __init__(
        self, model: OutcomeModel, n: int, values, members, coefs, codes, class_codes
    ):
        self.model = model
        self.n = n
        self.width = n * (model.M + 1)
        self.num_indices = model.m**n
        self.num_compositions = composition_count(n, model.m)
        self.values = tuple(values)
        self.T = len(self.values) - 1
        self.members = tuple(members)
        self.coefs = tuple(coefs)
        self.gammas = tuple(map(sum, self.coefs))
        smc = [0]
        for g in self.gammas:
            smc.append(smc[-1] + g)
        self.smc = tuple(smc)
        self.codes = tuple(codes)
        self.chunk_codes = tuple(self.codes[s - 1] for s in model._index_of_chunk)
        self.code_planes = _code_planes(self.chunk_codes, n, model.M + 1)
        self._class_by_code = {c: t for t, c in enumerate(class_codes)}
        self.stats = OracleStats()
        self._cache: dict = {}

    # -- oracle side (counted) ---------------------------------------------

    def tau1(self, k: Sequence[int], t: int) -> int:
        """1 iff composition k lies in class t; one counted query."""
        self._check_class(t)
        c = self.class_of(k)
        self.stats.tau1_queries += 1
        return 1 if c == t else 0

    def tau1_members(self, t: int) -> Tuple[Composition, ...]:
        """Compositions of class t via a bulk tau1 scan over all of K_n.

        Counts one query per composition in K_n: the scan asks tau1(k, t)
        for every k and keeps the hits.
        """
        self._check_class(t)
        return self._tau1_scan(t)

    def _tau1_scan(self, t: int) -> Tuple[Composition, ...]:
        """tau1_members for a class t the caller has already checked."""
        self.stats.tau1_queries += self.num_compositions
        return self.members[t]

    # -- table side (uncounted; validation and construction) ----------------

    def class_of(self, k: Sequence[int]) -> int:
        """The class of composition k: the class of its lattice code.

        k is checked first: a tuple that is not a composition, such as
        (2, 0, -1, 1) for B at n = 2, can still sum to a class's code.
        """
        try:
            key = tuple(k)
        except TypeError:  # not iterable: refused below, shown as given
            key = k
        if (
            type(key) is not tuple
            or len(key) != self.model.m
            or not all(type(x) is int and x >= 0 for x in key)
            or sum(key) != self.n
        ):
            raise DomainError(
                f"{shown(key)} is not a composition of {self.n} into {self.model.m} parts"
            )
        return self._class_by_code[sum(map(int.__mul__, key, self.codes))]

    def gamma(self, t: int) -> int:
        self._check_class(t)
        return self.gammas[t]

    def cdf(self, t: int, mode: str = "leq") -> Fraction:
        """P(S <= v_t) for mode 'leq', P(S < v_t) for mode 'lt'; exact."""
        self._check_class(t)
        if mode == "leq":
            return Fraction(self.smc[t + 1], self.num_indices)
        if mode == "lt":
            return Fraction(self.smc[t], self.num_indices)
        raise DomainError(f"cdf mode must be 'lt' or 'leq', got {shown(mode)}")

    def _check_class(self, t: int):
        if type(t) is not int or not 0 <= t <= self.T:
            raise DomainError(f"class index {shown(t)} out of range [0, {self.T}]")

    def __repr__(self):
        return f"ValueTable(n={self.n}, classes={self.T + 1}, m^n={self.num_indices})"


def _code_planes(chunk_codes: Sequence[int], n: int, mp1: int):
    """ValueTable.code_planes of n chunks of mp1 bits each."""
    w = list(chunk_codes)
    for b in range(mp1):  # w[S] -= w[S - {b}] over every S holding b
        bit = 1 << b
        for S in range(len(w)):
            if S & bit:
                w[S] -= w[S ^ bit]
    unit = ((1 << n * mp1) - 1) // ((1 << mp1) - 1)
    terms = []
    for S in range(1, len(w)):
        b = S.bit_length() - 1
        terms.append((S ^ (1 << b), b, w[S]))
    return unit, n * w[0], tuple(terms)


def build_value_table(model: OutcomeModel, n: int) -> ValueTable:
    """Group K_n by its integer lattice value, then sort the distinct classes.

    Refused before enumeration when n(M+1) > MAX_WIDTH or
    |K_n| > MAX_COMPOSITIONS.  The cyclic garbage collector is paused
    during the build and left as the caller had it.
    """
    if type(n) is not int or n < 1:
        raise DomainError(f"sum length n must be an integer >= 1, got {shown(n)}")
    width = n * (model.M + 1)
    if width > MAX_WIDTH:
        raise DomainError(
            f"value table at n = {shown(n)} has width n(M+1) = {shown(width)}, more than "
            f"MAX_WIDTH = {MAX_WIDTH}"
        )
    count = composition_count(n, model.m)
    if count > MAX_COMPOSITIONS:
        raise DomainError(
            f"value table at n = {n} has {count} compositions, more than "
            f"MAX_COMPOSITIONS = {MAX_COMPOSITIONS}"
        )
    # the build allocates millions of objects and frees none in cycles, so
    # the cyclic collector's rescans of them are pure cost
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build(model, n)
    finally:
        if enabled:
            gc.enable()


def _build(model: OutcomeModel, n: int) -> ValueTable:
    """The table of an admitted (model, n).

    Each composition is a high half (its first m//2 parts) followed by a
    low half, and each half carries its lattice code and multinomial
    coefficient, so a composition costs one add and one multiply.  Every
    high half in lex order, then every low half that completes it, is
    lex order, so every class lists its members in lex order.
    """
    den = lcm(*(q.denominator for o in model.outcomes for q in (o.a, o.b)))
    A = [o.a.numerator * (den // o.a.denominator) for o in model.outcomes]
    B = [o.b.numerator * (den // o.b.denominator) for o in model.outcomes]
    bound = n * max(map(abs, A + B))
    # the pair (a, b) is the int a * span + b: |b| <= bound < span / 2
    span = 2 * bound + 1
    code = [a * span + b for a, b in zip(A, B)]
    h = model.m // 2
    # a high half with an (h+1)-th slack part r, then a composition of r:
    # k's multinomial coefficient is the product of the halves' ones
    low = [_lattice_half(r, code[h:]) for r in range(n + 1)]
    classes = defaultdict(list)  # code -> [k, coef(k), k', coef(k'), ...]
    for hk, hcode, hcoef in _lattice_half(n, code[:h] + [0]):
        r = hk[h]
        hk = hk[:h]
        for lk, lcode, lcoef in low[r]:
            entry = classes[hcode + lcode]
            entry.append(hk + lk)
            entry.append(hcoef * lcoef)
    keyed = sorted((_lattice_key(c, span, bound, model.d), c) for c in classes)
    keys = [key for key, _ in keyed]
    order = [c for _, c in keyed]
    assert all(x < y for x, y in zip(keys, keys[1:])), "lattice keys must be distinct"
    values, members, coefs = [], [], []
    for c in order:
        a, b = _unpack(c, span, bound)
        values.append(ExactScalar(Fraction(a, den), Fraction(b, den), model.d))
        entry = classes.pop(c)
        members.append(tuple(entry[0::2]))
        coefs.append(tuple(entry[1::2]))
    return ValueTable(model, n, values, members, coefs, code, order)


def _lattice_half(r: int, code: Sequence[int]):
    """(k, lattice code, multinomial coefficient) of every composition k
    of r into len(code) parts, in lex order."""
    top = factorial(r)
    return [
        (k, sum(map(int.__mul__, k, code)), top // prod(map(factorial, k)))
        for k in enumerate_compositions(r, len(code))
    ]


def _unpack(c: int, span: int, bound: int) -> Tuple[int, int]:
    """The lattice pair (a, b) packed in c = a * span + b."""
    b = (c + bound) % span - bound
    return (c - b) // span, b


def _lattice_key(c: int, span: int, bound: int, d: int) -> int:
    """Exact integer sort key of the lattice pair (a, b) packed in c.

    kappa = a 2^p + sign(b) isqrt(d b^2 4^p) is within 1 of
    (a + b sqrt(d)) 2^p.  Two distinct pairs with |a|, |b| <= bound differ
    in value by at least 1 / (2 bound (1 + sqrt(d))), because a^2 - d b^2
    of their difference is a nonzero integer.  As bound < 2^bitlen(bound)
    and 1 + sqrt(d) < 2^(bitlen(isqrt(d)) + 1), the p below makes that gap,
    times 2^p, larger than 2, so distinct values get strictly ordered keys.
    """
    a, b = _unpack(c, span, bound)
    p = bound.bit_length() + isqrt(d).bit_length() + 3
    root = isqrt(d * b * b << 2 * p)
    return (a << p) + (root if b > 0 else -root)
