"""Strong trim representations: rearranged outcome arrays over the levels.

An admissible permutation pi turns the sorted quantile sequence into an
array of outcome ranks: row ell of the representation is the decoded
outcome sequence of pi(ell),

    IR(i, ell) = decode(pi(ell))_i        (i = 1..n, ell = 0..2^(n(M+1))-1).

Three invariants characterize these arrays:

* row sums:   sum_i o_{IR(i, ell)} = IS*_n(ell) for every ell,
* marginals:  every coordinate i takes each outcome rank s on exactly
              2^(n(M+1)) / m levels (the single-draw distribution),
* bijection:  ell -> (IR(1, ell), ..., IR(n, ell)) hits every outcome
              sequence exactly once.

Conversely, any array with rows drawn bijectively from the outcome
sequences recovers its permutation by encoding each row, so
representations and admissible permutations are in bijection.  A
Representation is stored as that level mapping alone and decodes its
rows when they are read; rows given by a caller are encoded once, and a
malformed row is refused there.  The invariants are checked on the
mapping: it must be admissible (a row sums to IS*_n(ell) iff its class
is istep(ell), and admissibility includes the bijection, which implies
the marginals).

clt_table compares the exact quantile cdf against the standard normal
cdf on the standardized grid z_t = v_t / (theta sqrt(n)); the sup
distance shrinks as n grows (a demo, the one floating-point corner of
the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError
from .indexing import _half_rows, _require_explicit, decode_weight_index
from .multinomial import ValueTable
from .permutations import (
    AdmissiblePermutation,
    PermLike,
    _as_mapping,
    admissibility_failure,
)


class Representation:
    """Outcome-rank array; row ell is decode(levels[ell]), columns 1..n."""

    def __init__(self, table: ValueTable, rows: Iterable[Sequence[int]]):
        _require_explicit(table.width)
        self.table = table
        self.n = table.n
        self.levels = tuple(_row_levels(table, rows))

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(_decoded_rows(self.table, self.levels))

    def row(self, ell: int) -> Tuple[int, ...]:
        if not 0 <= ell < len(self.levels):
            raise DomainError(f"level index {ell} out of range [0, {len(self.levels)})")
        return decode_weight_index(self.table.model, self.n, self.levels[ell])

    def entry(self, i: int, ell: int) -> int:
        """IR(i, ell): outcome rank of summand i at level ell (i is 1-based)."""
        r = self.row(ell)
        if not 1 <= i <= self.n:
            raise DomainError(f"summand index {i} out of range [1, {self.n}]")
        return r[i - 1]

    def __len__(self):
        return len(self.levels)

    def __eq__(self, other):
        if isinstance(other, Representation):
            return self.levels == other.levels
        return NotImplemented

    def __repr__(self):
        return f"Representation(n={self.n}, levels={len(self.levels)})"


def representation_from_perm(table: ValueTable, perm: PermLike) -> Representation:
    """The representation of pi; rejects inadmissible permutations."""
    _require_explicit(table.width)
    reason = admissibility_failure(table, perm)
    if reason is not None:
        raise DomainError(f"permutation is not admissible: {reason}")
    rep = Representation.__new__(Representation)  # the mapping needs no encoding
    rep.table, rep.n, rep.levels = table, table.n, tuple(_as_mapping(perm))
    return rep


def perm_from_representation(
    table: ValueTable, rep: Representation
) -> AdmissiblePermutation:
    """The unique permutation underlying rep: its level mapping."""
    reason = admissibility_failure(table, rep.levels)
    if reason is not None:
        raise DomainError(f"representation is not admissible: {reason}")
    return AdmissiblePermutation(table, rep.levels)


def representation_failure(
    table: ValueTable, rep: Representation, thorough: bool = True
) -> Optional[str]:
    """None if the three invariants hold, else a one-line reason.

    The level mapping must pass admissibility_failure (row sums and
    bijection, exhaustively).  thorough is kept for callers and changes
    nothing: a bijection onto all m^n outcome sequences puts every rank
    in every column m^(n-1) times, so a direct tally of the marginals
    could never fail.
    """
    return admissibility_failure(table, rep.levels)


def _decoded_rows(table: ValueTable, levels: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    hi, lo, shift = _half_rows(table)
    mask = (1 << shift) - 1
    return (hi[ell >> shift] + lo[ell & mask] for ell in levels)


def _row_levels(table: ValueTable, rows: Iterable[Sequence[int]]) -> List[int]:
    """The level each row decodes from, by one dict lookup per half-row.

    DomainError on a malformed row: a row of the wrong length or with a
    non-rank entry misses a dict.
    """
    hi, lo, shift = _half_rows(table)
    h = len(hi[0])  # ranks in a high half-row
    hi, lo = ({ranks: code for code, ranks in enumerate(half)} for half in (hi, lo))
    levels = []
    for ell, row in enumerate(rows):
        try:
            ranks = tuple(row)
            levels.append(hi[ranks[:h]] << shift | lo[ranks[h:]])
        except (KeyError, TypeError):  # TypeError: not iterable, or unhashable
            raise DomainError(
                f"row {ell} is {row!r}, not {table.n} outcome ranks in [1, {table.model.m}]"
            ) from None
    return levels


def verify_representation(table: ValueTable, rep: Representation) -> bool:
    return representation_failure(table, rep) is None


# -- normal comparison demo --------------------------------------------------


def normal_cdf(z: float) -> float:
    """Standard normal cdf Phi(z); erfc keeps the lower tail accurate."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass
class CltRow:
    z: float
    empirical: float  # P(S*_n <= v_t), exact count divided out
    reference: float  # Phi(z)


@dataclass
class CltResult:
    n: int
    theta: float
    rows: List[CltRow]
    sup_distance: float


def clt_table(table: ValueTable, grid_size: Optional[int] = None) -> CltResult:
    """Standardized quantile cdf against the normal cdf; sup over both sides.

    At each class t the empirical cdf jumps from SMC(t)/m^n to
    SMC(t+1)/m^n; the sup distance takes the larger deviation of the
    two, which is the Kolmogorov distance of the step function.
    """
    var = float(table.model.variance)
    if var <= 0.0:
        raise DomainError("clt comparison needs a model with positive variance")
    theta = math.sqrt(var)
    mean = float(table.model.mean)
    den = theta * math.sqrt(table.n)
    num = table.num_indices
    rows = []
    sup = 0.0
    for t in range(table.T + 1):
        z = (float(table.values[t]) - table.n * mean) / den
        lo = table.smc[t] / num
        hi = table.smc[t + 1] / num
        ref = normal_cdf(z)
        sup = max(sup, abs(lo - ref), abs(hi - ref))
        rows.append(CltRow(z, hi, ref))
    if grid_size is not None and 0 < grid_size < len(rows):
        step = len(rows) / grid_size
        rows = [rows[min(len(rows) - 1, int(i * step))] for i in range(grid_size)]
    return CltResult(table.n, theta, rows, sup)
