"""Value classes of n-fold outcome sums and their multinomial counts.

For a model with m outcomes and a sum length n, every composition
k = (k_1, ..., k_m) of n (k_s = how many draws hit outcome s) produces
the value sum_s k_s * o_s.  Distinct compositions can collide; the value
table groups them into classes t = 0..T_n ordered by increasing value,
with gamma_{n,t} = sum of multinomial coefficients over the class and
SMC_n(t) = sum_{u<t} gamma_{n,u} the strict cumulative count.  SMC runs
from SMC(0) = 0 to SMC(T_n + 1) = m^n and the class cdf at value class t
is SMC(t)/m^n (strict) or SMC(t+1)/m^n (inclusive).

tau1 is the class-membership oracle: tau1(k, t) = 1 iff composition k
lies in class t.  Algorithms downstream are measured by how many tau1
queries they issue, so every query (including bulk scans over all of
K_n) passes through an OracleStats tally.  Direct table accessors that
bypass tau1 (class_of, members) exist for table-side validation and are
deliberately not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

from .errors import DomainError
from .exactnum import ExactScalar
from .outcomes import OutcomeModel

Composition = Tuple[int, ...]


@lru_cache(maxsize=None)
def _coef(k: Composition) -> int:
    return factorial(sum(k)) // prod(factorial(x) for x in k)


def multinomial_coefficient(n: int, k: Sequence[int]) -> int:
    """n! / (k_1! ... k_m!) for a composition k of n."""
    key = tuple(k)
    if any(not isinstance(x, int) or x < 0 for x in key):
        raise DomainError(f"composition entries must be integers >= 0, got {key!r}")
    if sum(key) != n:
        raise DomainError(f"composition {key!r} sums to {sum(key)}, expected {n}")
    return _coef(key)


def enumerate_compositions(n: int, m: int) -> Iterator[Composition]:
    """All compositions of n into m parts, lexicographically increasing."""
    if m <= 0 or n < 0:
        raise DomainError(f"need m >= 1 parts and n >= 0, got m={m}, n={n}")
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in enumerate_compositions(n - first, m - 1):
            yield (first,) + rest


def composition_count(n: int, m: int) -> int:
    """|K_n| = C(n+m-1, m-1)."""
    return comb(n + m - 1, m - 1)


@dataclass
class OracleStats:
    """Deterministic query tallies."""

    tau1_queries: int = 0
    tau2_queries: int = 0
    bigint_ops: int = 0

    def reset(self):
        self.tau1_queries = 0
        self.tau2_queries = 0
        self.bigint_ops = 0

    def snapshot(self) -> "OracleStats":
        return OracleStats(self.tau1_queries, self.tau2_queries, self.bigint_ops)

    def delta(self, earlier: "OracleStats") -> "OracleStats":
        return OracleStats(
            self.tau1_queries - earlier.tau1_queries,
            self.tau2_queries - earlier.tau2_queries,
            self.bigint_ops - earlier.bigint_ops,
        )


class ValueTable:
    """Sorted value classes of the n-fold sums of one model.

    Fields: values[t] (exact, strictly increasing), members[t] (the
    compositions in class t, lex order), gammas[t], smc[0..T+1].
    width = n*(M+1) and num_indices = 2^width = m^n.
    """

    def __init__(self, model: OutcomeModel, n: int, classes):
        self.model = model
        self.n = n
        self.width = n * (model.M + 1)
        self.num_indices = model.m**n
        self.values = tuple(v for v, _ in classes)
        self.members = tuple(tuple(ks) for _, ks in classes)
        self.gammas = tuple(sum(_coef(k) for k in ks) for ks in self.members)
        smc = [0]
        for g in self.gammas:
            smc.append(smc[-1] + g)
        self.smc = tuple(smc)
        self._class_index = {
            k: t for t, ks in enumerate(self.members) for k in ks
        }
        self.stats = OracleStats()
        self._cache: dict = {}

    @property
    def T(self) -> int:
        return len(self.values) - 1

    # -- oracle side (counted) ---------------------------------------------

    def tau1(self, k: Sequence[int], t: int) -> int:
        """1 iff composition k lies in class t; one counted query."""
        self._check_class(t)
        key = tuple(k)
        if key not in self._class_index:
            raise DomainError(f"{key!r} is not a composition of {self.n} into {self.model.m} parts")
        self.stats.tau1_queries += 1
        return 1 if self._class_index[key] == t else 0

    def tau1_members(self, t: int) -> Tuple[Composition, ...]:
        """Compositions of class t via a bulk tau1 scan over all of K_n.

        Counts one query per composition in K_n: the scan asks tau1(k, t)
        for every k and keeps the hits.
        """
        self._check_class(t)
        self.stats.tau1_queries += len(self._class_index)
        return self.members[t]

    # -- table side (uncounted; validation and construction) ----------------

    def class_of(self, k: Sequence[int]) -> int:
        key = tuple(k)
        try:
            return self._class_index[key]
        except KeyError:
            raise DomainError(
                f"{key!r} is not a composition of {self.n} into {self.model.m} parts"
            ) from None

    def value(self, t: int) -> ExactScalar:
        self._check_class(t)
        return self.values[t]

    def gamma(self, t: int) -> int:
        self._check_class(t)
        return self.gammas[t]

    def smc_at(self, t: int) -> int:
        if not 0 <= t <= self.T + 1:
            raise DomainError(f"class index {t} out of range [0, {self.T + 1}]")
        return self.smc[t]

    def cdf(self, t: int, mode: str = "leq") -> Fraction:
        """P(S <= v_t) for mode 'leq', P(S < v_t) for mode 'lt'; exact."""
        self._check_class(t)
        if mode == "leq":
            return Fraction(self.smc[t + 1], self.num_indices)
        if mode == "lt":
            return Fraction(self.smc[t], self.num_indices)
        raise DomainError(f"cdf mode must be 'lt' or 'leq', got {mode!r}")

    def _check_class(self, t: int):
        if not isinstance(t, int) or not 0 <= t <= self.T:
            raise DomainError(f"class index {t!r} out of range [0, {self.T}]")

    def __repr__(self):
        return f"ValueTable(n={self.n}, classes={self.T + 1}, m^n={self.num_indices})"


def build_value_table(model: OutcomeModel, n: int) -> ValueTable:
    """Enumerate K_n, group it by exact value, then sort the distinct values.

    Enumeration is lex order, so each class lists its members in lex order.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"sum length n must be an integer >= 1, got {n!r}")
    classes: dict = {}
    for k in enumerate_compositions(n, model.m):
        value = model.zero()
        for s1, count in enumerate(k):
            if count:
                value = value + model.outcomes[s1] * count
        classes.setdefault(value, []).append(k)
    return ValueTable(model, n, sorted(classes.items(), key=itemgetter(0)))
