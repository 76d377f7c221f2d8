"""Exact scalars a + b*sqrt(d) over arbitrary-precision rationals.

A scalar is a pair of rationals (a, b) together with a fixed square-free
radicand d >= 0.  Everything downstream (outcome values, partial sums,
quantile tables) runs on these, so equality and order must be decided
exactly: sign(a + b*sqrt(d)) follows from the signs of a and b alone
when they agree, and from one rational comparison of a^2 against b^2*d
when they differ.  No floating point enters any comparison path; floats
appear only through float() for display and demos.

d is a per-model constant.  d = 0 and d = 1 degenerate to plain
rationals and the radical coefficient is folded away on construction,
so equal values always carry identical (a, b) components.  Scalars with
b = 0 are plain rationals regardless of d and mix freely with scalars
of any radicand; two scalars with nonzero radical parts must share d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import Union

from .errors import DomainError, shown

Rational = Union[int, Fraction]


# Largest radicand accepted: the square-free test is trial division up to
# sqrt(d), at most 2^16 steps, and runs once per radicand (memoized).
MAX_RADICAND = 2**32


@lru_cache(maxsize=256)
def _is_square_free(d: int) -> bool:
    if d < 0:
        return False
    if d < 4:
        return True
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


class ExactScalar:
    """Immutable element of Q(sqrt(d)) with exact comparisons."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational = 0, d: int = 1):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if type(d) is not int or d > MAX_RADICAND or not _is_square_free(d):
            raise DomainError(
                f"radicand must be a square-free integer in [0, {MAX_RADICAND}], got {shown(d)}"
            )
        if d == 1 and b:
            a, b = a + b, Fraction(0)
        elif d == 0:
            b = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.b == 0:
                return ExactScalar(other.a, 0, self.d)
            if self.b == 0:
                return other
            if other.d != self.d:
                raise DomainError(
                    f"mismatched radicands: sqrt({self.d}) vs sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other, 0, self.d)
        return NotImplemented

    # -- predicates -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return _sign(self.a, self.b, self.d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d if self.b != 0 else o.d
        return ExactScalar(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d if self.b != 0 else o.d
        return ExactScalar(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d if self.b != 0 else o.d
        return ExactScalar(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    # -- comparisons ------------------------------------------------------

    def cmp(self, other) -> int:
        """Exact three-way comparison; total order consistent with the reals.

        The sign of (a - a') + (b - b') sqrt(d), read off the parts.
        """
        if isinstance(other, ExactScalar):
            if self.b != 0 and other.b != 0 and other.d != self.d:
                raise DomainError(
                    f"mismatched radicands: sqrt({self.d}) vs sqrt({other.d})"
                )
            d = self.d if self.b != 0 else other.d
            return _sign(self.a - other.a, self.b - other.b, d)
        if isinstance(other, (int, Fraction)):
            return _sign(self.a - other, self.b, self.d)
        raise DomainError(f"cannot compare ExactScalar with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        # distinct square-free radicands never produce equal irrationals
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    # -- conversions ------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * sqrt(self.d)

    def __repr__(self) -> str:
        return f"ExactScalar({self.text()!r})"

    def text(self) -> str:
        """Canonical text form, e.g. '-1/2 + 3/4 * sqrt(2)'."""
        if self.b == 0:
            return _fmt_rational(self.a)
        radical = f"sqrt({self.d})"
        if abs(self.b) != 1:
            radical = f"{_fmt_rational(abs(self.b))} * {radical}"
        if self.a == 0:
            return radical if self.b > 0 else f"-{radical}"
        op = "+" if self.b > 0 else "-"
        return f"{_fmt_rational(self.a)} {op} {radical}"


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b sqrt(d)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: |a| vs |b|*sqrt(d), squared comparison is exact
    t = a * a - b * b * d
    if t == 0:
        return 0
    return 1 if (t > 0) == (a > 0) else -1


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<num>\d+)(?:/(?P<den>\d+))?\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+)\s*\))?
          | sqrt\(\s*(?P<rad2>\d+)\s*\)
        )""",
    re.VERBOSE,
)


def parse_scalar(text: str, d: int | None = None) -> ExactScalar:
    """Parse the canonical text form back into an ExactScalar.

    Accepts sums of terms 'p', 'p/q', 'p/q * sqrt(d)' and 'sqrt(d)' with
    optional signs.  If d is given, every radical in the text must match
    it and the result carries that radicand even when no radical occurs.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError(f"empty scalar text {shown(text)}")
    text = text.strip()
    a = Fraction(0)
    b = Fraction(0)
    seen_d = None
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == m.start():
            raise DomainError(f"invalid scalar text {text!r} at position {pos}")
        if not first and m.group("sign") is None:
            raise DomainError(f"missing sign between terms in {text!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        rad = m.group("rad1") or m.group("rad2")
        try:
            q = Fraction(int(m.group("num") or 1), int(m.group("den") or 1))
            if rad is not None:
                rad = int(rad)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r} at position {pos}") from None
        except ValueError:  # beyond Python's int-from-string digit limit
            raise DomainError(f"number too long at position {pos} of scalar text") from None
        if rad is not None:
            if rad in (0, 1):
                a += sign * q * rad
            elif seen_d is not None and rad != seen_d:
                raise DomainError(f"mixed radicands in {text!r}")
            else:
                seen_d = rad
                b += sign * q
        else:
            a += sign * q
        pos = m.end()
        first = False
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos < len(text) and text[pos] not in "+-":
            raise DomainError(f"invalid scalar text {text!r} at position {pos}")
    if seen_d is not None and d is not None and seen_d != d:
        raise DomainError(f"scalar {text!r} uses sqrt({seen_d}), expected sqrt({d})")
    out_d = seen_d if seen_d is not None else (d if d is not None else 1)
    return ExactScalar(a, b, out_d)
