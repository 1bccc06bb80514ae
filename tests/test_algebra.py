import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylfun.algebra import (
    GaussRational,
    ShiftedPoly,
    UniPoly,
    binom_shifted,
    format_poly,
    shifted_derivative,
)
from weylfun.errors import DomainError

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gauss_st = st.builds(GaussRational, fractions_st, fractions_st)
wide_fractions_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


def poly_st(max_degree=4):
    return st.builds(
        UniPoly,
        st.dictionaries(st.integers(min_value=0, max_value=max_degree), gauss_st, max_size=5),
    )


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
    # == compares stored fields, so every path must land in lowest terms
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a * b) / b == a


def _model(op, x, y):
    """Reference arithmetic on (re, im) pairs of Fractions."""
    (p, q), (r, s) = x, y
    if op == "+":
        return p + r, q + s
    if op == "-":
        return p - r, q - s
    if op == "*":
        return p * r - q * s, p * s + q * r
    norm = r * r + s * s
    return (p * r + q * s) / norm, (q * r - p * s) / norm


def _assert_matches_model(got, re, im):
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (re, im)
    built = GaussRational(re, im)
    assert got == built and hash(got) == hash(built) == (hash(re) if not im else hash((re, im)))
    assert str(got) == str(built)
    assert repr(got) == repr(built) == f"GaussRational({re!r}, {im!r})"
    assert complex(got) == complex(float(re), float(im))


@given(wide_fractions_st, wide_fractions_st, wide_fractions_st, wide_fractions_st,
       st.integers(min_value=0, max_value=6))
def test_gauss_matches_two_fraction_model(p, q, r, s, k):
    a = GaussRational(p, q)
    zero = Fraction(0)
    for other, pair in ((GaussRational(r, s), (r, s)), (r, (r, zero)), (int(s), (int(s), zero))):
        _assert_matches_model(a + other, *_model("+", (p, q), pair))
        _assert_matches_model(other + a, *_model("+", pair, (p, q)))
        _assert_matches_model(a - other, *_model("-", (p, q), pair))
        _assert_matches_model(other - a, *_model("-", pair, (p, q)))
        _assert_matches_model(a * other, *_model("*", (p, q), pair))
        _assert_matches_model(other * a, *_model("*", pair, (p, q)))
        if pair != (zero, zero):
            _assert_matches_model(a / other, *_model("/", (p, q), pair))
        if p or q:
            _assert_matches_model(other / a, *_model("/", pair, (p, q)))
    power = (Fraction(1), zero)
    for _ in range(k):
        power = _model("*", power, (p, q))
    _assert_matches_model(a ** k, *power)
    _assert_matches_model(-a, -p, -q)


def test_gauss_boundary_forms():
    assert str(GaussRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(GaussRational(0, 1)) == "i" and str(GaussRational(0, -1)) == "-i"
    assert str(GaussRational(0, Fraction(2, 3))) == "2/3i" and str(GaussRational(-5)) == "-5"
    assert str(GaussRational(2, 1)) == "2+i"
    assert repr(GaussRational(Fraction(6, 4), 2)) == "GaussRational(Fraction(3, 2), Fraction(2, 1))"
    assert GaussRational(Fraction(6, 4), 2) == GaussRational(Fraction(3, 2), Fraction(4, 2))
    assert GaussRational.from_complex(0.5 - 0.25j) == GaussRational(Fraction(1, 2), Fraction(-1, 4))


def test_real_gauss_hashes_as_its_value():
    table = {3: "int", Fraction(1, 2): "fraction"}
    assert table.get(GaussRational(3)) == "int" and table.get(GaussRational(Fraction(2, 4))) == "fraction"
    assert hash(GaussRational(3)) == hash(3) and GaussRational(3) == 3
    assert {GaussRational(Fraction(-5, 2)), Fraction(-5, 2)} == {Fraction(-5, 2)}


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


def test_negative_degree_rejected():
    for bad in ({-1: 1}, [(2, 1), (-3, 2)]):
        with pytest.raises(ValueError):
            UniPoly(bad)
    with pytest.raises(ValueError):
        UniPoly.monomial(-2, 3)
    assert ShiftedPoly(Fraction(1, 2), {-1: 2}).terms() == ((-1, GaussRational(2)),)


def test_negative_shift_is_a_domain_error():
    with pytest.raises(DomainError, match="shift exponent"):
        UniPoly.x().shift(-1)
    assert UniPoly.x().shift(2) == UniPoly.monomial(3)


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


# The Fraction-based text of GaussRational and format_poly, kept as a model:
# the renderers that read the integer numerators must give the same bytes.

def _model_gauss_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i" if im not in (1, -1) else ("i" if im == 1 else "-i")
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    return f"{re}{sign}{'i' if mag == 1 else f'{mag}i'}"


def _model_format_poly(q: UniPoly) -> str:
    if q.is_zero():
        return "0"
    parts = []
    for k, c in sorted(q.terms(), key=lambda t: t[0], reverse=True):
        neg = c.is_real() and c.re < 0
        if c.is_real():
            text, is_one = str(abs(c.re)), abs(c.re) == 1
        else:
            text, is_one = f"({_model_gauss_text(c.re, c.im)})", False
        xpart = "x" if k == 1 else f"x^{k}"
        body = text if k == 0 else xpart if is_one else f"{text}*{xpart}"
        if parts:
            body = ("- " if neg else "+ ") + body
        elif neg:
            body = "-" + body
        parts.append(body)
    return " ".join(parts)


units_st = st.sampled_from([GaussRational(1), GaussRational(-1), GaussRational(0, 1),
                            GaussRational(0, -1)])
text_coeff_st = st.one_of(
    units_st, gauss_st, st.builds(GaussRational, st.just(0), fractions_st),
    st.builds(GaussRational, wide_fractions_st, wide_fractions_st),
)


@given(st.dictionaries(st.integers(0, 6), text_coeff_st, max_size=5))
@example({})
@example({3: GaussRational(0, 1), 2: GaussRational(0, -1), 1: GaussRational(-1), 0: 1})
@example({1: GaussRational(Fraction(1, 2), Fraction(1, 3)), 0: GaussRational(Fraction(2, 3), 0)})
def test_text_matches_fraction_model(coeffs):
    q = UniPoly(coeffs)
    assert format_poly(q) == _model_format_poly(q)
    assert str(q) == _model_format_poly(q) and repr(q) == f"UniPoly<{_model_format_poly(q)}>"
    for c in coeffs.values():
        c = GaussRational(0) + c
        assert str(c) == _model_gauss_text(c.re, c.im)


def test_text_builds_no_fraction(monkeypatch):
    q = UniPoly({5: GaussRational(Fraction(1, 2), Fraction(1, 3)), 3: GaussRational(0, -1),
                 1: Fraction(-7, 4), 0: 1})
    scalars = [GaussRational(Fraction(3, 4), -2), GaussRational(0, Fraction(2, 3)),
               GaussRational(-5), GaussRational(0, 1), GaussRational(Fraction(6, 7), 1)]
    built = 0
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    texts = [format_poly(q), str(q), *map(str, scalars)]
    monkeypatch.undo()
    assert built == 0
    assert texts[:2] == ["(1/2+1/3i)*x^5 + (-i)*x^3 - 7/4*x + 1"] * 2
    assert texts[2:] == ["3/4-2i", "2/3i", "-5", "i", "6/7+i"]


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
    for bad in (1.5, 1j, "1", None):
        with pytest.raises(TypeError):
            GaussRational(bad)
        with pytest.raises(TypeError):
            GaussRational(0, bad)
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
