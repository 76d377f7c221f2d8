"""Triangular integer array: rows, blocks and the column sets Jbar.

The positive integers are split into consecutive rows grouped in
blocks: block b holds the M+1 rows numbered (b-1)(M+1)+1 .. b(M+1),
every row of block b has length b, and rows are laid out one after the
other, so row r of block b covers the interval

    ( C(b,2)(M+1) + (r-1) b ,  C(b,2)(M+1) + r b ]

with C(b,2) = b(b-1)/2.  Entry i of that row sits at
eta_{b,r,i} = C(b,2)(M+1) + (r-1) b + i.  Column i collects entry i
of every row long enough to have one; its positions within block i..
are what drives the sums: the coordinate set

    Jbar_i = { (M+1) C(i,2) + r i : r = 1..M+1 }

(the i-th entries of block i's own rows) satisfies
max(Jbar_i) < min(Jbar_{i+1}), so the union Jbar^n = Jbar_1 u ... u Jbar_n
is an increasing run of n(M+1) coordinates.  A point of (0,1) enters
through its binary digits: the digits at Jbar_i form the pattern of the
i-th summand, and the digits at Jbar^n, read in increasing coordinate
order, spell the level index ell.  eval_partial_sum reads that level
and decodes it (indexing.decode_weight_index), so a point reaches its
outcomes only through the level codec.  For M = 0 the layout
degenerates to Jbar_i = {i(i+1)/2}, the triangular numbers.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import Iterator, Sequence, Tuple

from .errors import DomainError, shown
from .exactnum import ExactScalar
from .indexing import decode_weight_index
from .multinomial import MAX_WIDTH
from .outcomes import OutcomeModel


class LayoutModel:
    """Row/block/column geometry of the triangular array at depth M."""

    def __init__(self, M: int):
        """DomainError unless 0 <= M < MAX_WIDTH: a wider chunk has no level."""
        if type(M) is not int or not 0 <= M < MAX_WIDTH:
            raise DomainError(f"M must be an integer in [0, {MAX_WIDTH}), got {shown(M)}")
        self.M = M

    def _check_pos(self, value: int, name: str):
        if type(value) is not int or value < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {shown(value)}")

    def _check_offset(self, value: int, top: int, name: str):
        if type(value) is not int or not 1 <= value <= top:
            raise DomainError(f"{name} {shown(value)} out of range [1, {shown(top)}]")

    def row_block(self, rho: int) -> Tuple[int, int]:
        """(b, r): row rho is the r-th row of block b."""
        self._check_pos(rho, "row index")
        b = (rho + self.M) // (self.M + 1)
        r = rho - (b - 1) * (self.M + 1)
        return b, r

    def row_length(self, rho: int) -> int:
        """lg(rho): rows of block b have length b."""
        return self.row_block(rho)[0]

    def row_entries(self, rho: int) -> range:
        """The interval of positions making up row rho."""
        b, r = self.row_block(rho)
        start = comb(b, 2) * (self.M + 1) + (r - 1) * b
        return range(start + 1, start + b + 1)

    def entry(self, b: int, r: int, i: int) -> int:
        """eta_{b,r,i}: position of entry i in row r of block b."""
        self._check_pos(b, "block index")
        self._check_offset(r, self.M + 1, "row offset")
        self._check_offset(i, b, "entry offset")
        return comb(b, 2) * (self.M + 1) + (r - 1) * b + i

    def decompose(self, eta: int) -> Tuple[int, int, int]:
        """Inverse of entry: the (b, r, i) coordinates of position eta."""
        self._check_pos(eta, "position")
        # smallest b with eta <= C(b+1,2)(M+1): quadratic estimate, then adjust
        q = (eta + self.M) // (self.M + 1)
        b = max(1, (isqrt(8 * q + 1) - 1) // 2)
        while comb(b + 1, 2) * (self.M + 1) < eta:
            b += 1
        while comb(b, 2) * (self.M + 1) >= eta:
            b -= 1
        off = eta - comb(b, 2) * (self.M + 1)
        r = (off + b - 1) // b
        i = off - (r - 1) * b
        return b, r, i

    def jbar(self, i: int, r: int) -> int:
        """Column-i coordinate contributed by the r-th row of block i."""
        self._check_pos(i, "column index")
        self._check_offset(r, self.M + 1, "row offset")
        return (self.M + 1) * comb(i, 2) + r * i

    def jbar_set(self, i: int) -> Tuple[int, ...]:
        """Jbar_i, ascending."""
        return tuple(self.jbar(i, r) for r in range(1, self.M + 2))

    def jbar_union(self, n: int) -> Tuple[int, ...]:
        """Jbar^n = Jbar_1 u ... u Jbar_n, ascending; its n(M+1) coordinates
        are refused past MAX_WIDTH, as a level that wide is."""
        self._check_pos(n, "n")
        if n * (self.M + 1) > MAX_WIDTH:
            raise DomainError(
                f"Jbar^n at n = {shown(n)} has n(M+1) = {shown(n * (self.M + 1))} "
                f"coordinates, more than MAX_WIDTH = {MAX_WIDTH}"
            )
        return tuple(self._jbar_coords(n))

    def _jbar_coords(self, n: int) -> Iterator[int]:
        """The coordinates of Jbar^n, ascending, made one at a time, so
        weight_index_of_bits stops at x's first missing digit whatever n is."""
        self._check_pos(n, "n")
        for i in range(1, n + 1):
            yield from self.jbar_set(i)


class BitString:
    """Finite binary expansion; bit(k) is the k-th digit, 1-based."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int]):
        try:
            bits = tuple(bits)
        except TypeError:
            raise DomainError(f"bits must be a sequence, got {shown(bits)}") from None
        if any(type(b) is not int or b not in (0, 1) for b in bits):
            raise DomainError("bits must be 0 or 1")
        self.bits = bits

    @property
    def depth(self) -> int:
        return len(self.bits)

    def bit(self, k: int) -> int:
        if type(k) is not int or k < 1:
            raise DomainError(f"bit position must be an integer >= 1, got {shown(k)}")
        if k > len(self.bits):
            raise DomainError(
                f"insufficient depth: need bit {shown(k)}, have {len(self.bits)}"
            )
        return self.bits[k - 1]

    def __repr__(self):
        return f"BitString({''.join(map(str, self.bits))!r})"


def weight_index_of_bits(layout: LayoutModel, x: BitString, n: int) -> int:
    """Level index spelled by x's digits at Jbar^n, each read as its coordinate is made."""
    ell = 0
    for j in layout._jbar_coords(n):
        ell = (ell << 1) | x.bit(j)
    return ell


def eval_partial_sum(
    model: OutcomeModel, layout: LayoutModel, x: BitString, n: int
) -> ExactScalar:
    """Sum of the n outcomes of the level that x spells at Jbar^n."""
    if layout.M != model.M:
        raise DomainError(
            f"layout depth M={layout.M} does not match model M={model.M}"
        )
    ell = weight_index_of_bits(layout, x, n)  # checks n
    return sum(map(model.outcome, decode_weight_index(model, n, ell)), model.zero())
