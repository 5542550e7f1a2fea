"""Exact arithmetic in the real quadratic field Q(sqrt 5).

A :class:`Scalar` is a number ``a + b*sqrt(5)`` with rational ``a`` and ``b``
held as :class:`fractions.Fraction`.  The field contains the golden ratio,
which is all that is needed to realize the non-crystallographic reflection
groups exactly; the crystallographic ones only ever use ``b = 0``.  The
package uses it only for the matrices of ``GroupElement.matrix``: a build,
roots and fixed-space geometry run on integer lattice coordinates (see
:mod:`~coxorbits.groups`).  The tests build their ``Scalar`` oracles on it.
No floating point appears anywhere.

Comparisons are decided exactly by a sign analysis of ``a**2 - 5*b**2``, never
by numeric approximation.

>>> phi = (Scalar.one() + Scalar.sqrt5()) / Scalar.from_int(2)
>>> phi * phi == phi + Scalar.one()
True
>>> Scalar.parse(phi.to_text()) == phi
True
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_TEXT_RE = re.compile(
    r"""^\s*(?P<an>-?\d+)/(?P<ad>\d+)
        (?:(?P<sign>[+-])(?P<bn>\d+)/(?P<bd>\d+)\*sqrt5)?\s*$""",
    re.VERBOSE,
)


class Scalar:
    """An immutable element ``a + b*sqrt(5)`` of Q(sqrt 5)."""

    __slots__ = ("a", "b")

    a: Fraction
    b: Fraction

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> Scalar:
        return _ZERO

    @staticmethod
    def one() -> Scalar:
        return _ONE

    @staticmethod
    def sqrt5() -> Scalar:
        return _SQRT5

    @staticmethod
    def from_int(n: int) -> Scalar:
        return Scalar(Fraction(n))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar(self.a - other.a, self.b - other.b)

    def __mul__(self, other: Scalar) -> Scalar:
        # (a + b s)(c + d s) = ac + 5bd + (ad + bc) s   with s*s = 5
        return Scalar(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __truediv__(self, other: Scalar) -> Scalar:
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        # multiply by the conjugate: 1/(c + d s) = (c - d s)/(c^2 - 5 d^2)
        norm = other.a * other.a - 5 * other.b * other.b
        if norm == 0:  # impossible for nonzero elements: sqrt5 is irrational
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.a * other.a - 5 * self.b * other.b) / norm,
            (self.b * other.a - self.a * other.b) / norm,
        )

    def __neg__(self) -> Scalar:
        return Scalar(-self.a, -self.b)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- comparison --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare |a| with |b|*sqrt5 by squaring
        s = 1 if a * a > 5 * b * b else -1
        return s if a > 0 else -s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __lt__(self, other: Scalar) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Scalar) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Scalar) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Scalar) -> bool:
        return (self - other).sign() >= 0

    # -- predicates and text -----------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def to_text(self) -> str:
        """Canonical text form ``p/q`` or ``p/q+r/s*sqrt5`` (sign folded in)."""
        out = f"{self.a.numerator}/{self.a.denominator}"
        if self.b:
            mag = abs(self.b)
            sign = "+" if self.b > 0 else "-"
            out += f"{sign}{mag.numerator}/{mag.denominator}*sqrt5"
        return out

    @staticmethod
    def parse(text: str) -> Scalar:
        m = _TEXT_RE.match(text)
        if m is None:
            raise ParseError(text, "expected p/q or p/q+r/s*sqrt5")
        ad, bd = int(m["ad"]), int(m["bd"] or 1)
        if ad == 0 or bd == 0:
            raise ParseError(text, "zero denominator")
        a = Fraction(int(m["an"]), ad)
        b = Fraction(0)
        if m["sign"] is not None:
            b = Fraction(int(m["bn"]), bd)
            if m["sign"] == "-":
                b = -b
        return Scalar(a, b)

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()!r})"


_ZERO = Scalar()
_ONE = Scalar(1)
_SQRT5 = Scalar(0, 1)

#: One half, the cosine of pi/3 that a simple bond carries in a Gram matrix
#: (the tests' Gram route to the Cartan integers).
HALF = Scalar(Fraction(1, 2))

#: The golden ratio (1 + sqrt 5)/2, the fundamental unit of the field.
PHI = Scalar(Fraction(1, 2), Fraction(1, 2))
