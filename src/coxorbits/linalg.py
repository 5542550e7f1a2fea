"""Exact linear algebra over Q(sqrt 5).

Vectors are plain tuples of :class:`~coxorbits.scalars.Scalar`; matrices are a
thin immutable wrapper around a tuple of row tuples.  Rank is computed by
fraction-free (Bareiss-style) elimination, which keeps intermediate entries
small; kernels come from an exact reduced row echelon form.  There are no
tolerances: a pivot is nonzero or it is not.

The package itself uses only the :class:`Matrix` type here
(``GroupElement.matrix``); its roots and fixed-space geometry run on integer
lattice coordinates, from the cycles of root permutations (see
:mod:`~coxorbits.groups`).  The tests build their fixed-space oracles
(codimension, containment, the reflections fixing a common fixed space) and
their Gram route to the Cartan integers on the routines here.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .scalars import Scalar

Vector = tuple[Scalar, ...]

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def vector(entries: Iterable[Scalar | int]) -> Vector:
    return tuple(e if isinstance(e, Scalar) else Scalar.from_int(e) for e in entries)


@dataclass(frozen=True)
class Matrix:
    """An immutable matrix with :class:`Scalar` entries, stored by rows."""

    rows: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar | int]]) -> Matrix:
        return Matrix(tuple(vector(r) for r in rows))

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> Matrix:
        return Matrix(tuple(zip(*cols, strict=True))) if cols else Matrix(())

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(
            tuple(
                tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
            )
        )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product ``M v``."""
        return tuple(
            sum((a * x for a, x in zip(row, v, strict=True)), _ZERO)
            for row in self.rows
        )

    def __mul__(self, other: Matrix) -> Matrix:
        cols = [other.column(j) for j in range(other.n_cols)]
        return Matrix(
            tuple(
                tuple(
                    sum((a * x for a, x in zip(row, col, strict=True)), _ZERO)
                    for col in cols
                )
                for row in self.rows
            )
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return Matrix(
            tuple(
                tuple(a - b for a, b in zip(r, s, strict=True))
                for r, s in zip(self.rows, other.rows, strict=True)
            )
        )


def rank(m: Matrix) -> int:
    """Rank by fraction-free elimination (exact, no tolerances)."""
    rows = [list(r) for r in m.rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    prev = _ONE
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, nr):
            row_i = rows[i]
            head = row_i[c]
            for j in range(c + 1, nc):
                # Bareiss step: the division by the previous pivot is exact
                row_i[j] = (piv * row_i[j] - head * row_r[j]) / prev
            row_i[c] = _ZERO
        prev = piv
        r += 1
    return r


def _rref(m: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols)."""
    rows = [list(r) for r in m.rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """A basis of ``{v : M v = 0}``, one vector per free column of the RREF."""
    nc = m.n_cols
    rows, pivots = _rref(m)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [_ZERO] * nc
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def solve_square(m: Matrix, b: Vector) -> Vector:
    """The unique solution of ``M x = b`` for invertible square ``M``."""
    if m.n_rows != m.n_cols:
        raise ValueError("solve_square needs a square matrix")
    aug = Matrix(
        tuple(row + (bi,) for row, bi in zip(m.rows, b, strict=True))
    )
    rows, pivots = _rref(aug)
    if pivots != list(range(m.n_cols)):
        raise ValueError("matrix is singular")
    return tuple(rows[i][m.n_cols] for i in range(m.n_cols))

