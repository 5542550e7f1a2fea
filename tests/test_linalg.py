"""Rank, kernel and fixed-space computations, cross-checked against a naive
Gaussian elimination oracle written independently below."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_space_codim, kernel_contains
from coxorbits import linalg
from coxorbits.linalg import Matrix, kernel_basis, rank
from coxorbits.scalars import HALF, PHI, Scalar


def naive_rank(rows):
    """Plain Gaussian elimination over the field, no Bareiss structure."""
    rows = [list(r) for r in rows]
    result = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [e / pivot[c] for e in pivot]
        rows = [
            [e - r[c] * p for e, p in zip(r, pivot)] if r[c] else r for r in rows
        ]
        result += 1
    return result


fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entry_st = st.builds(Scalar, fractions_st, st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def matrices_st(draw, max_dim=4):
    nr = draw(st.integers(min_value=1, max_value=max_dim))
    nc = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(entry_st, min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    return Matrix.from_rows(rows)


@settings(max_examples=150)
@given(matrices_st())
def test_rank_matches_naive_oracle(m):
    assert rank(m) == naive_rank(m.rows)


@settings(max_examples=150)
@given(matrices_st())
def test_rank_nullity(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.n_cols
    for v in ker:
        assert not any(m.apply(v))


@settings(max_examples=100)
@given(matrices_st(max_dim=3), matrices_st(max_dim=3))
def test_rank_of_product_bounded(a, b):
    if a.n_cols == b.n_rows:
        assert rank(a * b) <= min(rank(a), rank(b))


def test_rank_examples():
    ident = Matrix.identity(3)
    assert rank(ident) == 3
    zero = Matrix.from_rows([[0, 0, 0]] * 3)
    assert rank(zero) == 0
    assert fixed_space_codim(ident) == 0
    # entries with irrational parts still eliminate exactly
    m = Matrix.from_rows([[PHI, Scalar.one()], [PHI * PHI, PHI]])
    assert rank(m) == 1


def test_swap_reflection_fixed_space():
    # the matrix swapping two coordinates of R^3 is a reflection: codim 1
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert fixed_space_codim(swap) == 1
    ident = Matrix.identity(3)
    assert kernel_contains(swap, ident) is False
    assert kernel_contains(ident, swap) is True
    assert kernel_contains(swap, swap) is True


def test_kernel_contains_disjoint_reflections():
    swap01 = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap12 = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not kernel_contains(swap01, swap12)
    both = swap01 * swap12  # a 3-cycle: fixed space is the diagonal line
    assert fixed_space_codim(both) == 2
    assert kernel_contains(swap01, both)
    assert kernel_contains(swap12, both)


def test_solve_square():
    m = Matrix.from_rows([[Scalar.from_int(2), HALF], [Scalar.one(), Scalar.one()]])
    b = (Scalar.one(), Scalar.zero())
    x = linalg.solve_square(m, b)
    assert m.apply(x) == b
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        linalg.solve_square(singular, b)


def test_non_square_rejected():
    wide = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        fixed_space_codim(wide)
    with pytest.raises(ValueError):
        kernel_contains(wide, wide)


def test_fraction_entries_stay_exact():
    # Hilbert-style matrix: floats would misjudge the rank, exact arithmetic not
    n = 5
    m = Matrix.from_rows(
        [
            [Scalar(Fraction(1, i + j + 1)) for j in range(n)]
            for i in range(n)
        ]
    )
    assert rank(m) == n
