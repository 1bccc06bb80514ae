import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylfun import algebra, polyfam, weyl
from weylfun.algebra import GaussRational, UniPoly
from weylfun.disentangle import EVEN_HERMITE_EXPONENT, _as_weylop
from weylfun.errors import NonConvergenceError, NotCentralError
from weylfun.weyl import (
    Eigen,
    Terminated,
    WeylOp,
    apply_exp_taylor,
    apply_to_poly,
    central_bch_prefactor,
    commutator,
    hadamard_conjugate,
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


def test_ladder_powers_match_the_normal_ordered_closed_form():
    # (p + 2ix)^n with [p, 2ix] = 2 central: the coefficient of x^j p^k is
    # n!/(j! k! l!) (2i)^j with l = (n - j - k)/2 (Wilcox, J. Math. Phys. 8, 1967)
    f = math.factorial
    for n, power in zip(range(41), polyfam._ladder_powers()):
        expected = WeylOp({
            (j, k): GaussRational(0, 2) ** j * (f(n) // (f(j) * f(k) * f((n - j - k) // 2)))
            for j in range(n + 1) for k in range(n + 1 - j) if (n - j - k) % 2 == 0
        })
        assert power == expected, n


def test_hermite_ladder_square():
    ladder = WeylOp({(0, 1): 1, (1, 0): 2 * I})  # p + 2ix
    expected = WeylOp({(0, 2): 1, (1, 1): 4 * I, (2, 0): -4, (0, 0): 2})
    assert ladder * ladder == expected
    assert ladder ** 2 == expected
    assert ladder ** 0 == WeylOp.identity()
    assert ladder ** 1 == ladder


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
        hadamard_conjugate(X2 + P2, X, GaussRational(1))
    assert "64" in str(err.value)


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
    ladder2 = WeylOp({(0, 1): 1, (1, 0): 2 * I}) ** 2
    assert apply_to_poly(ladder2, UniPoly.one()) == UniPoly({2: -4, 0: 2})
    assert apply_to_poly(X2, UniPoly.x()) == UniPoly.monomial(3)


@given(op_st, op_st, poly_st)
@settings(max_examples=30)
def test_action_homomorphism(a, b, q):
    assert apply_to_poly(a * b, q) == apply_to_poly(a, apply_to_poly(b, q))


# ------------------------------------------------ integer kernels vs model
# Term-by-term GaussRational versions of the three kernels, kept as the model
# that the integer-numerator kernels in weyl must reproduce exactly.

_MODEL_NEG_I_POW = (GaussRational(1), GaussRational(0, -1), GaussRational(-1), GaussRational(0, 1))


def model_product(a, b):
    pairs = []
    for (j1, k1), c1 in a.terms():
        for (j2, k2), c2 in b.terms():
            for m in range(min(k1, j2) + 1):
                w = math.comb(k1, m) * math.comb(j2, m) * math.factorial(m)
                pairs.append(((j1 + j2 - m, k1 + k2 - m), c1 * c2 * (_MODEL_NEG_I_POW[m % 4] * w)))
    return WeylOp(pairs)


def model_apply_to_poly(w, q):
    derivs = [q]
    out = UniPoly.zero()
    for (j, k), c in w.terms():
        while len(derivs) <= k:
            derivs.append(derivs[-1].derivative())
        if not derivs[k].is_zero():
            out = out + derivs[k].shift(j) * (c * _MODEL_NEG_I_POW[k % 4])
    return out


def model_apply_exp_taylor(w, xi, q, order):
    acc = powq = q
    weight = GaussRational(1)
    for m in range(1, order + 1):
        powq = model_apply_to_poly(w, powq)
        if powq.is_zero():
            break
        weight = weight * xi / m
        acc = acc + powq * weight
    return acc


XI_BINARY = GaussRational(Fraction(0.02))  # denominator 2^55, as the Taylor oracle passes it
xi_st = st.one_of(gauss_st, st.just(XI_BINARY))


@given(op_st, op_st, poly_st)
@settings(max_examples=40)
def test_kernels_match_term_by_term_model(a, b, q):
    assert a * b == model_product(a, b)
    assert apply_to_poly(a, q) == model_apply_to_poly(a, q)


@given(op_st, xi_st, poly_st, st.integers(0, 6))
@settings(max_examples=40)
@example(X2 + I * P, GaussRational(Fraction(1, 3), Fraction(-2, 5)), UniPoly.x(), 5)
@example(X2 + P2, XI_BINARY, UniPoly({0: Fraction(1, 3), 2: GaussRational(1, 2)}), 6)
@example(X2 + P, XI_BINARY, UniPoly.x(), 0)
@example(X + P, GaussRational(0, 1), UniPoly.zero(), 4)
@example(P2 * Fraction(3, 7), XI_BINARY, UniPoly({1: 2, 3: I}), 6)  # p^2 annihilates q at m = 2
@example(_as_weylop(EVEN_HERMITE_EXPONENT), XI_BINARY, UniPoly.monomial(2), 30)  # the oracle's case
def test_exp_taylor_matches_term_by_term_model(w, xi, q, order):
    assert apply_exp_taylor(w, xi, q, order) == model_apply_exp_taylor(w, xi, q, order)


def test_taylor_powers_shared_across_times_match_apply_exp_taylor():
    op = _as_weylop(EVEN_HERMITE_EXPONENT)
    for q in (UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)):
        powers = weyl._taylor_powers(op, q, 30)
        for t in (0.02, 0.05):
            xi = GaussRational(Fraction(t))
            assert weyl._taylor_sum(op, q, powers, xi) == apply_exp_taylor(op, xi, q, 30)


def test_exp_taylor_at_zero_is_the_probe():
    q = UniPoly({0: Fraction(1, 3), 2: I})
    assert apply_exp_taylor(X2 + P2, GaussRational(0), q, 30) is q


def test_kernels_build_one_scalar_per_output_coefficient(monkeypatch):
    """No kernel builds a GaussRational; reading terms() builds one per coefficient."""
    op = _as_weylop(EVEN_HERMITE_EXPONENT)
    a = WeylOp({(0, 0): Fraction(1, 3), (1, 2): I, (2, 1): GaussRational(2, -1), (3, 3): 5})
    b = WeylOp({(0, 1): Fraction(-2, 7), (2, 0): 3 * I, (1, 3): 1, (3, 2): Fraction(5, 4)})
    q = UniPoly({0: Fraction(1, 3), 2: GaussRational(1, 2)})
    calls = 0
    original = algebra._reduced

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(algebra, "_reduced", counting)
    for run in (lambda: apply_exp_taylor(op, XI_BINARY, q, 30), lambda: a * b,
                lambda: apply_to_poly(a, q)):
        calls = 0
        out = run()
        assert calls == 0
        terms = out.terms()
        assert calls == len(terms) > 0
