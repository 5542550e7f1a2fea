"""Classification labels and exact realization data for finite Coxeter groups.

A group is named by a product label such as ``"A3"``, ``"I2(30)"`` or
``"B2xA1"``; factors are separated by ``x``.  Supported irreducible families:

* ``A(n>=1)``, ``B(n>=2)``, ``D(n>=4)``,
* ``E6``, ``E7``, ``E8``, ``F4`` (crystallographic),
* ``H3``, ``H4`` (over Q(sqrt 5)),
* ``I2(m>=3)``, handled combinatorially (no coordinates needed).

Every family but the dihedral one is realized the same way: the simple roots
are the unit vectors, and each simple reflection acts by the family's Cartan
integers, which ``cartan_matrix`` reads from the diagram bonds and the long
and short roots (the geometric representation, Humphreys, *Reflection Groups
and Coxeter Groups*, 5.3).  Every root is then written by its exact
coefficients on the simple roots, integers or ``p + q*phi``, so building a
root system needs no ``Scalar`` arithmetic.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial

from .errors import ParseError

_FACTOR_RE = re.compile(r"([ABDEFH])(\d+)|I2\((\d+)\)")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "H": (3, 4),
}


@dataclass(frozen=True)
class IrreducibleDatum:
    """One irreducible factor: a family letter, its rank, and the dihedral
    parameter ``m`` (``None`` except for family ``I``)."""

    family: str
    rank: int
    param: int | None = None

    @property
    def label(self) -> str:
        if self.family == "I":
            return f"I2({self.param})"
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CoxeterDatum:
    """A finite Coxeter group presented as a product of irreducible factors."""

    factors: tuple[IrreducibleDatum, ...]

    @property
    def label(self) -> str:
        return "x".join(f.label for f in self.factors)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)


def parse_datum(text: str) -> CoxeterDatum:
    """Parse a product label like ``"A3"`` or ``"A2xI2(5)"``."""
    factors = []
    pos = 0
    for i, part in enumerate(text.split("x")):
        if i > 0:
            pos += 1  # the separator
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            raise ParseError(text, f"bad factor {part!r}", position=pos)
        if m.group(3) is not None:
            mm = int(m.group(3))
            if mm < 3:
                raise ParseError(text, "dihedral parameter must be >= 3", position=pos)
            factors.append(IrreducibleDatum("I", 2, mm))
        else:
            family, rank = m.group(1), int(m.group(2))
            lo, hi = _RANK_RANGE[family]
            if rank < lo or (hi is not None and rank > hi):
                raise ParseError(
                    text, f"rank {rank} out of range for family {family}", position=pos
                )
            factors.append(IrreducibleDatum(family, rank))
        pos += len(part)
    return CoxeterDatum(tuple(factors))


_EXCEPTIONAL_CENSUS = {
    ("E", 6): (51840, 36),
    ("E", 7): (2903040, 63),
    ("E", 8): (696729600, 120),
    ("F", 4): (1152, 24),
    ("H", 3): (120, 15),
    ("H", 4): (14400, 60),
}


def census_irreducible(ir: IrreducibleDatum) -> tuple[int, int]:
    """Classical ``(|W|, |T|)`` for one irreducible factor."""
    n = ir.rank
    if ir.family == "A":
        return factorial(n + 1), n * (n + 1) // 2
    if ir.family == "B":
        return 2**n * factorial(n), n * n
    if ir.family == "D":
        return 2 ** (n - 1) * factorial(n), n * n - n
    if ir.family == "I":
        assert ir.param is not None
        return 2 * ir.param, ir.param
    return _EXCEPTIONAL_CENSUS[(ir.family, n)]


def census(datum: CoxeterDatum) -> tuple[int, int]:
    """``(|W|, |T|)``: orders multiply over factors, reflections add."""
    order, nrefl = 1, 0
    for ir in datum.factors:
        o, t = census_irreducible(ir)
        order *= o
        nrefl += t
    return order, nrefl


def cartan_matrix(ir: IrreducibleDatum) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Cartan integers ``<alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) /
    (alpha_j, alpha_j)`` of a vector family's simple roots, at ``[i][j]``,
    read from its diagram: each is the pair ``(p, q)`` standing for
    ``p + q*phi``.

    The diagonal is ``2``, a simple bond gives ``-1`` both ways, and
    unbonded roots are orthogonal.  Across the double bond of B and F the
    long root's row holds ``-2`` in the short root's column, and the short
    root's row ``-1`` in the long root's; B's last root and F's last two
    are the short ones.  Across H's five-fold bond both entries are
    ``-phi``, the pair ``(0, -1)``: its roots meet at ``-cos(pi/5) =
    -phi/2`` with unit norm.
    """
    family, n = ir.family, ir.rank
    bonds = [(k, k + 1) for k in range(n - 1)]
    if family == "D":
        bonds[-1] = (n - 3, n - 1)
    elif family == "E":
        bonds = [(0, 2), (1, 3)] + bonds[2:]
    elif family not in ("A", "B", "F", "H"):
        raise ValueError(f"no vector realization for family {family!r}")
    entries = {(i, i): (2, 0) for i in range(n)}
    for i, j in bonds:
        entries[i, j] = entries[j, i] = (-1, 0)
    if family == "B":
        entries[n - 2, n - 1] = (-2, 0)
    elif family == "F":
        entries[1, 2] = (-2, 0)
    elif family == "H":
        entries[0, 1] = entries[1, 0] = (0, -1)
    return tuple(
        tuple(entries.get((i, j), (0, 0)) for j in range(n)) for i in range(n)
    )
