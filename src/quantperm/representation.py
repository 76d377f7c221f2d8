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
representations and admissible permutations are in bijection, and the
package keeps one class for both: a representation is an
AdmissiblePermutation (see permutations), whose rows, row and entry
decode its level mapping when read.  Rows given by a caller enter
through AdmissiblePermutation.from_rows, which encodes each row once and
refuses a malformed one.  The conversions below only check: the
invariants hold iff the mapping is admissible (a row sums to IS*_n(ell)
iff its class is istep(ell), and admissibility includes the bijection,
which implies the marginals).  Each takes an AdmissiblePermutation or
any level mapping, coerced by permutations.as_permutation (a permutation
of another table is re-wrapped for this one), so an input
that is no mapping of ints in [0, 2^32), or a table wider than
EXPLICIT_WIDTH_LIMIT, is refused with DomainError rather than given a
reason.

clt_table compares the exact quantile cdf against the standard normal
cdf on the standardized grid z_t = v_t / (theta sqrt(n)); the sup
distance shrinks as n grows (a demo, the one floating-point corner of
the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .errors import DomainError, shown
from .multinomial import ValueTable
from .permutations import AdmissiblePermutation, PermLike, admissibility_failure, as_permutation


def _admitted(table: ValueTable, perm: PermLike, what: str) -> AdmissiblePermutation:
    """perm as an AdmissiblePermutation, after one admissibility check."""
    perm = as_permutation(table, perm)
    reason = admissibility_failure(table, perm)
    if reason is not None:
        raise DomainError(f"{what} is not admissible: {reason}")
    return perm


def representation_from_perm(table: ValueTable, perm: PermLike) -> AdmissiblePermutation:
    """The representation of pi (pi itself); rejects inadmissible permutations."""
    return _admitted(table, perm, "permutation")


def perm_from_representation(table: ValueTable, rep: PermLike) -> AdmissiblePermutation:
    """The unique permutation underlying rep (rep itself), once checked."""
    return _admitted(table, rep, "representation")


def representation_failure(
    table: ValueTable, rep: PermLike, thorough: bool = True
) -> Optional[str]:
    """None if the three invariants hold, else a one-line reason.

    The level mapping must pass admissibility_failure (row sums and
    bijection, exhaustively).  thorough is kept for callers and changes
    nothing: a bijection onto all m^n outcome sequences puts every rank
    in every column m^(n-1) times, so a direct tally of the marginals
    could never fail.
    """
    return admissibility_failure(table, rep)


# -- normal comparison demo --------------------------------------------------


def normal_cdf(z: float) -> float:
    """Standard normal cdf Phi(z); erfc keeps the lower tail accurate."""
    try:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    except (TypeError, OverflowError):  # not a number, or past float range
        raise DomainError(f"normal_cdf needs a float z, got {shown(z)}") from None


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
    two, which is the Kolmogorov distance of the step function.  A
    grid_size, an int >= 1, subsamples the rows to at most that many.
    """
    if grid_size is not None and (type(grid_size) is not int or grid_size < 1):
        raise DomainError(f"grid size must be an integer >= 1, got {shown(grid_size)}")
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
    if grid_size is not None and grid_size < len(rows):
        step = len(rows) / grid_size
        rows = [rows[min(len(rows) - 1, int(i * step))] for i in range(grid_size)]
    return CltResult(table.n, theta, rows, sup)
