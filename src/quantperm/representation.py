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
sequences recovers its permutation by re-encoding each row, so
representations and admissible permutations are in bijection.

clt_table compares the exact quantile cdf against the standard normal
cdf on the standardized grid z_t = v_t / (theta sqrt(n)); the sup
distance shrinks as n grows (a demo, the one floating-point corner of
the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError
from .indexing import (
    _require_explicit,
    decoded_vectors,
    encode_weight_index,
    istep,
    step_classes,
    weight_classes,
)
from .multinomial import ValueTable
from .permutations import (
    AdmissiblePermutation,
    PermLike,
    _as_mapping,
    admissibility_failure,
    blocks_of,
)


class Representation:
    """Outcome-rank array; rows indexed by level, columns 1..n."""

    def __init__(self, table: ValueTable, rows: Sequence[Tuple[int, ...]]):
        self.table = table
        self.n = table.n
        self.rows = tuple(rows)

    def row(self, ell: int) -> Tuple[int, ...]:
        if not 0 <= ell < len(self.rows):
            raise DomainError(f"level index {ell} out of range [0, {len(self.rows)})")
        return self.rows[ell]

    def entry(self, i: int, ell: int) -> int:
        """IR(i, ell): outcome rank of summand i at level ell (i is 1-based)."""
        r = self.row(ell)
        if not 1 <= i <= self.n:
            raise DomainError(f"summand index {i} out of range [1, {self.n}]")
        return r[i - 1]

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if isinstance(other, Representation):
            return self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        return f"Representation(n={self.n}, levels={len(self.rows)})"


def representation_from_perm(table: ValueTable, perm: PermLike) -> Representation:
    """Decode pi(ell) for every level; rejects inadmissible permutations."""
    _require_explicit(table.width)
    reason = admissibility_failure(table, perm)
    if reason is not None:
        raise DomainError(f"permutation is not admissible: {reason}")
    mapping = _as_mapping(perm)
    dec = decoded_vectors(table)
    return Representation(table, [dec[ellp] for ellp in mapping])


def perm_from_representation(
    table: ValueTable, rep: Representation
) -> AdmissiblePermutation:
    """Re-encode the rows back into the unique underlying permutation."""
    _require_explicit(table.width)
    if len(rep) != table.num_indices:
        raise DomainError(
            f"representation has {len(rep)} rows, expected {table.num_indices}"
        )
    model = table.model
    mapping = []
    seen = bytearray(table.num_indices)
    for ell, row in enumerate(rep.rows):
        if len(row) != table.n:
            raise DomainError(f"row {ell} has {len(row)} entries, expected {table.n}")
        ellp = encode_weight_index(model, row)
        if seen[ellp]:
            raise DomainError(
                f"rows are not a bijection: outcome sequence of level {ell} "
                f"already used (encodes to {ellp})"
            )
        seen[ellp] = 1
        mapping.append(ellp)
    return AdmissiblePermutation(table, mapping, blocks_of(table, mapping))


def representation_failure(
    table: ValueTable, rep: Representation, thorough: bool = True
) -> Optional[str]:
    """None if the three invariants hold, else a one-line reason.

    Row sums are checked exhaustively through the class maps (exact:
    a row sums to IS*(ell) iff its frequency class equals istep(ell)).
    The bijection check is exhaustive.  With thorough=True the marginal
    counts are also tallied directly.
    """
    if len(rep) != table.num_indices:
        return f"{len(rep)} rows, expected {table.num_indices}"
    model = table.model
    sc = step_classes(table)
    wc = weight_classes(table)
    seen = bytearray(table.num_indices)
    for ell, row in enumerate(rep.rows):
        ellp = encode_weight_index(model, row)
        if wc[ellp] != sc[ell]:
            return (
                f"row sum mismatch at ell={ell}: class {wc[ellp]}, "
                f"expected istep={sc[ell]}"
            )
        if seen[ellp]:
            return f"rows are not a bijection: duplicate at ell={ell}"
        seen[ellp] = 1
    if thorough:
        want = table.num_indices // model.m
        counts = [[0] * model.m for _ in range(table.n)]
        for row in rep.rows:
            for i, s in enumerate(row):
                counts[i][s - 1] += 1
        for i in range(table.n):
            for s1 in range(model.m):
                if counts[i][s1] != want:
                    return (
                        f"marginal of summand {i + 1} at outcome {s1 + 1} is "
                        f"{counts[i][s1]}, expected {want}"
                    )
    return None


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
