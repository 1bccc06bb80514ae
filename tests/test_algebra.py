import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylfun.algebra import (
    GaussRational,
    ShiftedPoly,
    UniPoly,
    binom_shifted,
    format_poly,
    shifted_derivative,
)

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gauss_st = st.builds(GaussRational, fractions_st, fractions_st)


def poly_st(max_degree=4):
    return st.builds(
        UniPoly,
        st.dictionaries(st.integers(min_value=0, max_value=max_degree), gauss_st, max_size=5),
    )


# --------------------------------------------------------------- Rational

def test_rational_is_always_normalized():
    from weylfun.algebra import Rational

    assert Rational(2, 4) == Rational(1, 2)
    assert Rational(1, -2).denominator == 2
    assert Rational(1, -2).numerator == -1
    assert (Rational(3, 7) * Rational(7, 3)).denominator == 1


# ------------------------------------------------------------ GaussRational

def test_i_squared_is_minus_one():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)


def test_division_inverts_multiplication():
    a = GaussRational(Fraction(3, 4), Fraction(-2, 5))
    b = GaussRational(Fraction(-1, 3), Fraction(7, 2))
    assert (a * b) / b == a
    assert a / a == GaussRational(1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / GaussRational(0)


@given(gauss_st, gauss_st, gauss_st)
def test_gauss_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(gauss_st)
def test_gauss_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * (GaussRational(1) / a) == GaussRational(1)


# ------------------------------------------------------------------ UniPoly

def test_poly_add():
    x = UniPoly.x()
    assert x + x == UniPoly.monomial(1, 2)


def test_poly_mul():
    two_x = UniPoly.monomial(1, 2)
    assert two_x * two_x == UniPoly.monomial(2, 4)


def test_poly_scale():
    h2 = UniPoly({2: 4, 0: -2})
    assert h2 * (-1) == UniPoly({2: -4, 0: 2})


def test_poly_derivative():
    assert UniPoly.monomial(3).derivative() == UniPoly.monomial(2, 3)
    # H2' = 8x = 2*2*H1
    assert UniPoly({2: 4, 0: -2}).derivative() == UniPoly.monomial(1, 8)
    assert UniPoly.one().derivative().is_zero()


def test_poly_eval_exact():
    assert UniPoly.monomial(1, 2).evaluate(GaussRational(3)) == GaussRational(6)
    # H2(0) = -2 straight from the recurrence seeds
    assert UniPoly({2: 4, 0: -2}).evaluate(GaussRational(0)) == GaussRational(-2)
    assert UniPoly.one().evaluate(GaussRational(Fraction(7, 3))) == GaussRational(1)


def test_poly_eval_complex():
    val = UniPoly({2: 1, 0: 1}).evaluate(2.0 + 0j)
    assert val == pytest.approx(5.0)


def test_no_zero_coefficients_stored():
    q = UniPoly({3: 1, 1: 0, 0: Fraction(0)})
    assert q.terms() == ((3, GaussRational(1)),)
    assert (q - q).is_zero()


@given(poly_st(8), poly_st(8))
@settings(max_examples=60)
def test_leibniz_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(poly_st(), poly_st(), poly_st())
@settings(max_examples=40)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(poly_st(), poly_st())
@settings(max_examples=40)
def test_product_degree_adds(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree == a.degree + b.degree


@given(poly_st(), poly_st(), gauss_st)
@settings(max_examples=40)
def test_eval_is_ring_homomorphism(a, b, x0):
    assert (a * b).evaluate(x0) == a.evaluate(x0) * b.evaluate(x0)
    assert (a + b).evaluate(x0) == a.evaluate(x0) + b.evaluate(x0)


def test_format_poly_canonical():
    assert format_poly(UniPoly({2: 4, 0: -2})) == "4*x^2 - 2"
    assert format_poly(UniPoly({2: Fraction(1, 2), 1: -2, 0: 1})) == "1/2*x^2 - 2*x + 1"
    assert format_poly(UniPoly()) == "0"
    assert format_poly(UniPoly.monomial(1, 2)) == "2*x"


# -------------------------------------------------------------- ShiftedPoly

def test_shifted_derivative_power_rule():
    s = ShiftedPoly(Fraction(1, 2), {2: 1})  # x^(1/2 + 2)
    assert shifted_derivative(s) == ShiftedPoly(Fraction(1, 2), {1: Fraction(5, 2)})


def test_shifted_derivative_kills_alpha_zero_constant():
    s = ShiftedPoly(0, {0: 1})  # plain constant
    assert shifted_derivative(s).is_zero()


def test_shifted_derivative_integer_alpha():
    s = ShiftedPoly(2, {1: 3})  # 3 x^(2+1)
    assert shifted_derivative(s) == ShiftedPoly(2, {0: 9})


def test_shifted_mixed_offsets_rejected():
    a = ShiftedPoly(Fraction(1, 2), {0: 1})
    b = ShiftedPoly(Fraction(1, 3), {0: 1})
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_without_offset_requires_nonnegative_exponents():
    good = ShiftedPoly(Fraction(1, 2), {2: 1, 0: -3})
    assert good.without_offset() == UniPoly({2: 1, 0: -3})
    with pytest.raises(RuntimeError):
        ShiftedPoly(Fraction(1, 2), {-1: 1}).without_offset()


# -------------------------------------------------------------- term maps

def test_cancelling_poly_arithmetic_stores_no_zero():
    a = UniPoly({2: 1, 1: 3, 0: 1})
    total = a + UniPoly({2: -1, 1: 3})
    assert dict(total.terms()) == {1: GaussRational(6), 0: GaussRational(1)}
    assert total.degree == 1
    assert (a - a).terms() == () and (a - a).degree == -1
    product = UniPoly({1: 1, 0: 1}) * UniPoly({1: 1, 0: -1})  # x^2 - 1
    assert dict(product.terms()) == {2: GaussRational(1), 0: GaussRational(-1)}
    assert (a * 0).terms() == ()


def test_cancelling_shifted_arithmetic_stores_no_zero():
    half = Fraction(1, 2)
    a = ShiftedPoly(half, {2: 1, 0: -3})
    b = ShiftedPoly(half, {2: -1, -1: 2})
    assert dict((a + b).terms()) == {0: GaussRational(-3), -1: GaussRational(2)}
    assert (a - a).terms() == () and (a - a).is_zero()
    assert (a + (-a)).terms() == ()
    assert (a * 0).terms() == () and (a * 0).alpha == half


def test_constructor_errors_keep_their_types():
    with pytest.raises(TypeError):
        UniPoly({1.5: 1})
    with pytest.raises(TypeError):
        UniPoly({1: 1.5})
    with pytest.raises(TypeError):
        ShiftedPoly(Fraction(1, 2), {0: 1.5})


# ------------------------------------------------------------ binom_shifted

def test_binom_shifted_examples():
    assert binom_shifted(0, 2, 0) == 1
    assert binom_shifted(1, 1, 0) == 2
    assert binom_shifted(Fraction(1, 2), 1, 0) == Fraction(3, 2)


@pytest.mark.parametrize("alpha", range(5))
def test_binom_shifted_matches_integer_binomials(alpha):
    for n in range(13):
        for k in range(n + 1):
            assert binom_shifted(alpha, n, k) == math.comb(n + alpha, n - k)


def test_binom_shifted_range_errors():
    with pytest.raises(ValueError):
        binom_shifted(0, 2, 3)
    with pytest.raises(ValueError):
        binom_shifted(0, 2, -1)
