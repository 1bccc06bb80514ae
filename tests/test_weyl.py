from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylfun.algebra import GaussRational, UniPoly
from weylfun.errors import NonConvergenceError, NotCentralError
from weylfun.weyl import (
    Eigen,
    Terminated,
    WeylOp,
    apply_exp_taylor,
    apply_to_one,
    apply_to_poly,
    central_bch_prefactor,
    commutator,
    hadamard_conjugate,
    weyl_pow,
    xp_plus_px,
)

I = GaussRational(0, 1)
X = WeylOp.x()
P = WeylOp.p()
X2 = WeylOp({(2, 0): 1})
P2 = WeylOp({(0, 2): 1})

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gauss_st = st.builds(GaussRational, fractions_st, fractions_st)
op_st = st.builds(
    WeylOp,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), gauss_st, min_size=1, max_size=4
    ),
)
poly_st = st.builds(
    UniPoly, st.dictionaries(st.integers(0, 4), gauss_st, max_size=4)
)


# ------------------------------------------------------------------ product

def test_reorder_single_step():
    assert P * X == WeylOp({(1, 1): 1, (0, 0): -I})


def test_already_ordered_product():
    assert X * P == WeylOp({(1, 1): 1})


def test_hermite_ladder_square():
    ladder = WeylOp({(0, 1): 1, (1, 0): 2 * I})  # p + 2ix
    expected = WeylOp({(0, 2): 1, (1, 1): 4 * I, (2, 0): -4, (0, 0): 2})
    assert ladder * ladder == expected
    assert weyl_pow(ladder, 2) == expected
    assert weyl_pow(ladder, 0) == WeylOp.identity()
    assert weyl_pow(ladder, 1) == ladder


# -------------------------------------------------------------- commutators

@pytest.mark.parametrize(
    "a,b,expected",
    [
        (X, P, WeylOp.scalar(I)),
        (X2, P, WeylOp({(1, 0): 2 * I})),
        (X2, xp_plus_px, WeylOp({(2, 0): 4 * I})),
        (xp_plus_px, P2, WeylOp({(0, 2): 4 * I})),
        (X2, P2, WeylOp({(0, 0): 2, (1, 1): 4 * I})),
    ],
)
def test_commutator_table(a, b, expected):
    assert commutator(a, b) == expected


@given(op_st, op_st)
@settings(max_examples=40)
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)


@given(op_st, op_st, op_st)
@settings(max_examples=25)
def test_jacobi_identity(a, b, c):
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.is_zero()


@given(op_st, op_st, op_st)
@settings(max_examples=25)
def test_normal_order_confluence(a, b, c):
    assert (a * b) * c == a * (b * c)


# ------------------------------------------------------- hadamard conjugate

def test_hadamard_gaussian_shift():
    res = hadamard_conjugate(X2, P, GaussRational(1))
    assert res == Terminated(WeylOp({(0, 1): 1, (1, 0): 2 * I}))


def test_hadamard_plain_exponential_shift():
    res = hadamard_conjugate(X, P, GaussRational(1))
    assert res == Terminated(WeylOp({(0, 1): 1, (0, 0): I}))


@pytest.mark.parametrize("f", [Fraction(1), Fraction(1, 3)])
def test_hadamard_mixed_term(f):
    res = hadamard_conjugate(X2, xp_plus_px, GaussRational(f))
    assert res == Terminated(xp_plus_px + WeylOp({(2, 0): 4 * I * GaussRational(f)}))


@pytest.mark.parametrize("f", [Fraction(1), Fraction(1, 3)])
def test_hadamard_p_squared(f):
    res = hadamard_conjugate(X2, P2, GaussRational(f))
    g = GaussRational(f)
    expected = P2 + xp_plus_px * (2 * I * g) + WeylOp({(2, 0): -4 * g * g})
    assert res == Terminated(expected)


def test_hadamard_eigen_case():
    res = hadamard_conjugate(xp_plus_px, P2, GaussRational(1))
    assert isinstance(res, Eigen)
    assert res.eigenvalue == 4 * I
    assert res.op == P2


def test_hadamard_non_convergent():
    # x^2 + p^2 rotates x into p and back forever
    with pytest.raises(NonConvergenceError) as err:
        hadamard_conjugate(X2 + P2, X, GaussRational(1), max_depth=16)
    assert "16" in str(err.value)


def test_hadamard_max_depth_validation():
    with pytest.raises(ValueError):
        hadamard_conjugate(X, P, GaussRational(1), max_depth=0)


@pytest.mark.parametrize(
    "a,b",
    [(X2, P), (X, P), (X2, xp_plus_px), (X2, P2)],
)
def test_hadamard_matches_truncated_exponentials(a, b):
    # e^(xi a) b e^(-xi a) applied to probes, exponentials truncated at
    # order 20, compared against the exact finite conjugation at xi=1/10
    xi = Fraction(1, 10)
    conj = hadamard_conjugate(a, b, GaussRational(xi))
    assert isinstance(conj, Terminated)
    for q in (UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)):
        inner = apply_exp_taylor(a, GaussRational(-xi), q, 20)
        lhs = apply_exp_taylor(a, GaussRational(xi), apply_to_poly(b, inner), 20)
        rhs = apply_to_poly(conj.result, q)
        for x0 in (0.0, 0.5, 1.0):
            assert abs(lhs.evaluate(x0) - rhs.evaluate(x0)) <= 1e-10


# ---------------------------------------------------------------- BCH factor

def test_bch_prefactor_displacement_case():
    c = central_bch_prefactor(X * 2, P * GaussRational(0, -1))
    assert c == GaussRational(2)  # prefactor exponent -c/2 = -1


def test_bch_prefactor_commuting():
    assert central_bch_prefactor(X, X) == GaussRational(0)


def test_bch_prefactor_not_central():
    with pytest.raises(NotCentralError):
        central_bch_prefactor(X2, P)


def test_cancelling_operator_arithmetic_stores_no_zero():
    # (x + p)(x - p) = x^2 - xp + (xp - i) - p^2: the xp terms cancel inside the product
    product = (X + P) * (X - P)
    assert dict(product.terms()) == {
        (2, 0): GaussRational(1), (0, 2): GaussRational(-1), (0, 0): -I
    }
    assert (X2 - X2).terms() == () and (X2 + (-X2)).is_zero()
    assert dict((X2 + P - X2).terms()) == {(0, 1): GaussRational(1)}
    assert (X * 0).terms() == ()


def test_constructor_rejects_negative_exponent():
    with pytest.raises(ValueError):
        WeylOp({(-1, 0): 1})
    with pytest.raises(TypeError):
        WeylOp({(1, 0): 1.5})


# ----------------------------------------------------------- representation

def test_apply_examples():
    assert apply_to_poly(P, UniPoly.one()).is_zero()
    ladder2 = weyl_pow(WeylOp({(0, 1): 1, (1, 0): 2 * I}), 2)
    assert apply_to_one(ladder2) == UniPoly({2: -4, 0: 2})
    assert apply_to_poly(X2, UniPoly.x()) == UniPoly.monomial(3)


@given(op_st, op_st, poly_st)
@settings(max_examples=30)
def test_action_homomorphism(a, b, q):
    assert apply_to_poly(a * b, q) == apply_to_poly(a, apply_to_poly(b, q))
