"""The integer-numerator term maps against a per-coefficient GaussRational model.

UniPoly, ShiftedPoly and WeylOp store integer numerators over one
denominator.  The model below is the term map as a dict from key to nonzero
GaussRational, with every operation run coefficient by coefficient; each
result must match it in ==, terms(), coeff() and str.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylfun.algebra import GaussRational, ShiftedPoly, UniPoly, shifted_derivative
from weylfun.weyl import WeylOp

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gauss_st = st.builds(GaussRational, fractions_st, fractions_st)
scalar_st = st.one_of(st.just(0), st.integers(-5, 5), fractions_st, gauss_st)
degrees_st = st.dictionaries(st.integers(0, 6), gauss_st, max_size=5)
shifted_keys_st = st.dictionaries(st.integers(-3, 5), gauss_st, max_size=5)
exponents_st = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), gauss_st, max_size=5
)


# ---------------------------------------------------------------- the model

def m_sum(pairs) -> dict:
    out = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def m_add(a: dict, b: dict) -> dict:
    return m_sum([*a.items(), *b.items()])


def m_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def m_scale(a: dict, s) -> dict:
    return m_sum((k, c * s) for k, c in a.items())


def m_mul(a: dict, b: dict) -> dict:
    return m_sum((k1 + k2, c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items())


def m_normal(j1: int, k1: int, j2: int, k2: int) -> dict:
    """x^j1 p^k1 x^j2 p^k2 normal-ordered by moving one x past p^k1 at a time."""
    if not k1 or not j2:
        return {(j1 + j2, k1 + k2): GaussRational(1)}
    # p^k x = x p^k - i k p^(k-1)
    return m_add(m_normal(j1 + 1, k1, j2 - 1, k2),
                 m_scale(m_normal(j1, k1 - 1, j2 - 1, k2), GaussRational(0, -k1)))


def m_wmul(a: dict, b: dict) -> dict:
    return m_sum((key, c1 * c2 * w) for (j1, k1), c1 in a.items() for (j2, k2), c2 in b.items()
                 for key, w in m_normal(j1, k1, j2, k2).items())


def m_evaluate(a: dict, x0):
    deg = max(a, default=-1)
    if isinstance(x0, complex):
        acc = 0j
        for k in range(deg, -1, -1):
            acc = acc * x0 + (complex(a[k]) if k in a else 0.0)
        return acc
    acc = GaussRational(0)
    for k in range(deg, -1, -1):
        acc = acc * x0 + a.get(k, GaussRational(0))
    return acc


def assert_matches(got, model: dict, built):
    """got equals the model's term map, and built is the same map through the constructor."""
    assert got == built
    assert got.terms() == tuple(sorted(model.items()))
    assert str(got) == str(built)


def assert_poly(got: UniPoly, model: dict):
    assert_matches(got, model, UniPoly(model))
    for k in range(-1, 14):
        assert got.coeff(k) == model.get(k, GaussRational(0))
    assert got.degree == max(model, default=-1)


# -------------------------------------------------------------------- tests

@given(degrees_st, degrees_st, scalar_st, st.integers(0, 4))
@settings(max_examples=80)
def test_unipoly_matches_model(a, b, s, j):
    a, b = m_sum(a.items()), m_sum(b.items())
    pa, pb = UniPoly(a), UniPoly(b)
    assert_poly(pa + pb, m_add(a, b))
    assert_poly(pa - pb, m_add(a, m_neg(b)))
    assert_poly(pa - pa, {})
    assert_poly(-pa, m_neg(a))
    assert_poly(pa * pb, m_mul(a, b))
    assert_poly(pa * s, m_scale(a, s))
    assert_poly(s * pa, m_scale(a, s))
    assert_poly(pa.derivative(), m_sum((k - 1, c * k) for k, c in a.items() if k > 0))
    assert_poly(pa.shift(j), {k + j: c for k, c in a.items()})


@given(degrees_st, st.one_of(st.integers(-3, 3), fractions_st, gauss_st),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=80)
def test_unipoly_evaluate_matches_model(a, x0, z):
    a = m_sum(a.items())
    got = UniPoly(a).evaluate(x0)
    assert type(got) is GaussRational and got == m_evaluate(a, GaussRational(0) + x0)
    assert repr(got) == repr(m_evaluate(a, GaussRational(0) + x0))
    assert UniPoly(a).evaluate(z) == m_evaluate(a, z)  # float Horner, bit for bit
    assert UniPoly(a).evaluate(z.real) == m_evaluate(a, complex(z.real))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4), shifted_keys_st,
       shifted_keys_st, scalar_st)
@settings(max_examples=80)
def test_shifted_poly_matches_model(alpha, a, b, s):
    a, b = m_sum(a.items()), m_sum(b.items())
    sa, sb = ShiftedPoly(alpha, a), ShiftedPoly(alpha, b)
    assert_matches(sa + sb, m_add(a, b), ShiftedPoly(alpha, m_add(a, b)))
    assert_matches(sa - sb, m_add(a, m_neg(b)), ShiftedPoly(alpha, m_add(a, m_neg(b))))
    assert_matches(-sa, m_neg(a), ShiftedPoly(alpha, m_neg(a)))
    assert_matches(sa * s, m_scale(a, s), ShiftedPoly(alpha, m_scale(a, s)))
    deriv = m_sum((k - 1, c * (alpha + k)) for k, c in a.items())
    assert_matches(shifted_derivative(sa), deriv, ShiftedPoly(alpha, deriv))
    assert shifted_derivative(sa).alpha == alpha


@given(exponents_st, exponents_st, scalar_st)
@settings(max_examples=80)
def test_weylop_matches_model(a, b, s):
    a, b = m_sum(a.items()), m_sum(b.items())
    wa, wb = WeylOp(a), WeylOp(b)
    for got, model in (
        (wa + wb, m_add(a, b)),
        (wa - wb, m_add(a, m_neg(b))),
        (-wa, m_neg(a)),
        (wa * s, m_scale(a, s)),
        (s * wa, m_scale(a, s)),
        (wa * wb, m_wmul(a, b)),
    ):
        assert_matches(got, model, WeylOp(model))
        for key in ((0, 0), (1, 2), (3, 3)):
            assert got.coeff(*key) == model.get(key, GaussRational(0))
        assert got.scalar_part() == model.get((0, 0), GaussRational(0))


def test_weylop_p_power_times_x_power_matches_model():
    # exponents up to 8 reach the commutation terms m = 1..8, past the strategy's 3
    for k in range(9):
        for j in range(9):
            model = m_wmul({(0, k): GaussRational(1)}, {(j, 0): GaussRational(1)})
            got = WeylOp({(0, k): 1}) * WeylOp({(j, 0): 1})
            assert_matches(got, model, WeylOp(model))


def test_equal_values_have_equal_fields():
    half = Fraction(1, 2)
    assert UniPoly({1: half}) + UniPoly({1: half}) == UniPoly.x()
    assert (UniPoly({0: half}) * 2).terms() == ((0, GaussRational(1)),)
    assert WeylOp({(1, 0): Fraction(2, 6)}) * 3 == WeylOp.x()
    assert UniPoly({2: Fraction(1, 3)}).derivative() * Fraction(3, 2) == UniPoly.x()
