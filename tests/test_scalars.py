"""Field axioms, exact comparisons and text round-trips for Scalar."""
from fractions import Fraction
from math import isclose, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxorbits.errors import ParseError
from coxorbits.scalars import HALF, PHI, Scalar

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)


def test_constants():
    assert Scalar.zero() == Scalar(0)
    assert Scalar.one() == Scalar(1)
    assert PHI == (Scalar.one() + Scalar.sqrt5()) / Scalar.from_int(2)
    assert HALF + HALF == Scalar.one()


def test_golden_ratio_identity():
    assert PHI * PHI == PHI + Scalar.one()
    assert Scalar.one() / PHI == PHI - Scalar.one()


def test_sqrt5_squares_to_five():
    assert Scalar.sqrt5() * Scalar.sqrt5() == Scalar.from_int(5)


@given(scalars_st, scalars_st, scalars_st)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars_st)
def test_field_inverse(x):
    if x:
        assert x / x == Scalar.one()
        assert (Scalar.one() / x) * x == Scalar.one()
    else:
        with pytest.raises(ZeroDivisionError):
            Scalar.one() / x


@given(scalars_st)
def test_sign_matches_float_approximation(x):
    approx = float(x.a) + float(x.b) * sqrt(5)
    if isclose(approx, 0, abs_tol=1e-9):
        # too close to zero for floats to referee; rely on exactness instead
        assert (x.sign() == 0) == (not x)
    else:
        assert x.sign() == (1 if approx > 0 else -1)


@given(scalars_st, scalars_st)
def test_order_is_total_and_compatible(x, y):
    assert (x < y) + (x == y) + (y < x) == 1
    if x < y:
        assert -y < -x
        assert x + x < y + y


def test_comparison_near_miss():
    # 161/72 is a convergent of sqrt(5): floats would need care, exact sign not
    close = Scalar(Fraction(161, 72))
    assert close > Scalar.sqrt5()
    assert Scalar(Fraction(682, 305)) < Scalar.sqrt5()


@given(scalars_st)
def test_text_round_trip(x):
    assert Scalar.parse(x.to_text()) == x


def test_text_forms():
    assert Scalar.from_int(3).to_text() == "3/1"
    assert Scalar(Fraction(-1, 2)).to_text() == "-1/2"
    assert PHI.to_text() == "1/2+1/2*sqrt5"
    assert (Scalar.zero() - Scalar.sqrt5()).to_text() == "0/1-1/1*sqrt5"
    assert Scalar.parse("2/4") == HALF


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "sqrt5",
        "1",
        "1/2+sqrt5",
        "1/2+1/3sqrt5",
        "x/y",
        "1/2 + 1/3*sqrt5 extra",
        "1/0",
        "1/2+1/0*sqrt5",
    ],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        Scalar.parse(bad)


def test_is_rational():
    assert HALF.is_rational()
    assert not PHI.is_rational()
