import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from weylfun import polyfam, weyl
from weylfun.algebra import GaussRational, UniPoly, _int_sum, _made
from weylfun.errors import DomainError, SingularityError
from weylfun.harness import run_check


def hermite_sum_oracle(n):
    """Independent closed-form route: H_n = n! sum_k (-1)^k (2x)^(n-2k) / (k!(n-2k)!)."""
    coeffs = {}
    for k in range(n // 2 + 1):
        deg = n - 2 * k
        c = Fraction((-1) ** k * math.factorial(n), math.factorial(k) * math.factorial(deg))
        coeffs[deg] = c * 2 ** deg
    return UniPoly(coeffs)


# ---------------------------------------------------------- hermite routes

def test_hermite_seeds():
    hs = polyfam.hermite_recurrence(2)
    assert hs[0] == UniPoly.one()
    assert hs[1] == UniPoly.monomial(1, 2)
    assert hs[2] == UniPoly({2: 4, 0: -2})


def test_hermite_rodrigues_examples():
    assert polyfam.hermite_rodrigues(0) == UniPoly.one()
    assert polyfam.hermite_rodrigues(1) == UniPoly.monomial(1, 2)
    assert polyfam.hermite_rodrigues(3) == UniPoly({3: 8, 1: -12})


def rodrigues_model(n):
    """The Rodrigues route as one loop per degree: q -> 2x q - q' from 1, on numerator maps."""
    q = {0: (1, 0)}
    for _ in range(n):
        q = _int_sum(itertools.chain.from_iterable(
            ((k + 1, 2 * re, 2 * im), (k - 1, -k * re, -k * im)) for k, (re, im) in q.items()
        ))
    return _made(UniPoly, q, 1)


def test_hermite_rodrigues_matches_its_loop_model():
    for n in range(41):
        assert polyfam.hermite_rodrigues(n) == rodrigues_model(n), n


def test_hermite_operator_examples():
    assert polyfam.hermite_operator(0) == UniPoly.one()
    assert polyfam.hermite_operator(2) == UniPoly({2: 4, 0: -2})
    assert polyfam.hermite_operator(5) == polyfam.hermite_recurrence(5)[5]


def test_hermite_triple_equality_and_oracle():
    hs = polyfam.hermite_recurrence(25)
    for n in range(26):
        assert hs[n] == polyfam.hermite_rodrigues(n) == polyfam.hermite_operator(n)
        assert hs[n] == hermite_sum_oracle(n)


def test_hermite_recurrence_matches_rodrigues_at_the_cli_cap():
    h = polyfam.hermite_recurrence(200)[200]
    assert h == polyfam.hermite_rodrigues(200)
    assert h.coeff(200) == GaussRational(2 ** 200)


@pytest.mark.parametrize("route", [
    polyfam.hermite_recurrence,
    polyfam.hermite_rodrigues,
    polyfam.hermite_operator,
    lambda n: polyfam.laguerre_recurrence(n, Fraction(1, 2)),
    lambda n: polyfam.laguerre_operator(n, Fraction(1, 2)),
    lambda n: polyfam.laguerre_explicit(n, Fraction(1, 2)),
], ids=["hermite_recurrence", "hermite_rodrigues", "hermite_operator",
        "laguerre_recurrence", "laguerre_operator", "laguerre_explicit"])
@pytest.mark.parametrize("n", [-1, -5])
def test_exact_routes_reject_a_negative_degree(route, n):
    with pytest.raises(DomainError, match="must be >= 0"):
        route(n)


@pytest.mark.parametrize("call, name", [
    (lambda n: polyfam.hermite_addition_check(n, 1, 2), "n"),
    (lambda n: polyfam.hermite_genfun_partial(0.5, 1.0, n), "n_terms"),
    (lambda n: polyfam.even_hermite_partial(0.1, 1.0, n), "n_terms"),
    (lambda n: polyfam.laguerre_genfun_partial(0.5, 1.0, 0, n), "n_terms"),
    (lambda n: polyfam.psi_eval(n, 1.0), "n"),
    (lambda n: polyfam.psi_derivative(n, 1.0), "n"),
    (lambda n: polyfam.hermite_expand(math.exp, n), "n_max"),
], ids=["hermite_addition_check", "hermite_genfun_partial", "even_hermite_partial",
        "laguerre_genfun_partial", "psi_eval", "psi_derivative", "hermite_expand"])
def test_counts_reject_a_negative_value_by_name(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be >= 0, got -1$"):
        call(-1)


def test_hermite_from_ladder_rejects_a_surviving_imaginary_coefficient():
    # (-i)^1 applied through the identity leaves -i at degree 0
    with pytest.raises(RuntimeError, match="imaginary coefficient -i survived at degree 0"):
        polyfam._hermite_from_ladder(1, weyl.WeylOp.identity())


@pytest.fixture
def product_calls(monkeypatch):
    """Count normal-ordered WeylOp products."""
    calls = []
    inner = weyl._product

    def counted(a, b):
        calls.append(None)
        return inner(a, b)

    monkeypatch.setattr(weyl, "_product", counted)
    return calls


def test_triple_check_grows_the_ladder_one_product_per_degree(product_calls):
    result = run_check("hermite_triple_equality")
    assert result["pass"]
    assert len(product_calls) <= 26  # rebuilding ladder**n for every n costs 325


@pytest.mark.parametrize("n", [0, 7, 25])
def test_hermite_operator_makes_n_products(product_calls, n):
    assert polyfam.hermite_operator(n) == polyfam.hermite_recurrence(n)[n]
    assert len(product_calls) == n


def test_hermite_leading_coefficient_and_parity():
    hs = polyfam.hermite_recurrence(12)
    for n in range(13):
        assert hs[n].degree == n
        assert hs[n].coeff(n) == GaussRational(2 ** n)
        for k, _ in hs[n].terms():
            assert (n - k) % 2 == 0  # H_n(-x) = (-1)^n H_n(x)


def test_hermite_numeric_spot_check_mpmath():
    hs = polyfam.hermite_recurrence(10)
    for n in (1, 4, 7, 10):
        for x in (-1.3, 0.4, 2.2):
            want = float(mpmath.hermite(n, x))
            got = hs[n].evaluate(complex(x)).real
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hermite_derivative_relation():
    hs = polyfam.hermite_recurrence(25)
    for n in range(1, 26):
        assert hs[n].derivative() == hs[n - 1] * (2 * n)


def test_hermite_ode_residual_is_zero():
    for n in (0, 2, 10, 25):
        assert polyfam.hermite_ode_residual(n).is_zero()


# -------------------------------------------------------- addition formula

def test_addition_formula_n0_n1():
    lhs, rhs = polyfam.hermite_addition_check(0, Fraction(1), Fraction(1))
    assert lhs == rhs == GaussRational(1)
    lhs, rhs = polyfam.hermite_addition_check(1, Fraction(1), Fraction(1))
    assert lhs == rhs == GaussRational(4)


def test_addition_formula_exact_rationals():
    lhs, rhs = polyfam.hermite_addition_check(4, Fraction(1, 2), Fraction(1, 3))
    assert lhs == rhs


def test_addition_formula_sweep():
    pairs = [(Fraction(-3, 2), Fraction(5, 4)), (Fraction(2), Fraction(-1, 3)),
             (Fraction(0), Fraction(7, 5))]
    for x0, y0 in pairs:
        for n in range(31):
            lhs, rhs = polyfam.hermite_addition_check(n, x0, y0)
            assert lhs == rhs


@pytest.mark.parametrize("x", [Fraction(0), Fraction(-3, 2), Fraction(5, 4), Fraction(7, 5)])
def test_hermite_sqrt2_integers_against_the_exact_polynomials(x):
    # H_k(sqrt2 x) / sqrt2^(k mod 2) = sum over j = k (mod 2) of c_j 2^((j - k mod 2)/2) x^j
    for k in range(31):
        h = polyfam.hermite_recurrence(k)[k]
        want = sum(c.re * 2 ** ((j - k % 2) // 2) * x ** j for j, c in h.terms())
        assert Fraction(polyfam._hermite_sqrt2(k, x)[k], x.denominator ** k) == want, k


# ----------------------------------------------------- generating functions

def test_hermite_genfun_at_zero():
    assert polyfam.hermite_genfun_partial(0.0, 1.7, 10) == pytest.approx(1.0)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_hermite_genfun_partial_converges(x):
    want = cmath.exp(-0.25 + x)
    # H_n alone overflows floats near n = 280; the sum must not
    for n_terms in (40, 400):
        assert abs(polyfam.hermite_genfun_partial(0.5, x, n_terms) - want) <= 1e-12


def test_even_hermite_trivial_t():
    assert polyfam.even_hermite_partial(0.0, 0.3, 5) == pytest.approx(1.0)
    assert polyfam.even_hermite_closed(0.0, 0.3) == pytest.approx(1.0)


def test_even_hermite_closed_value():
    got = polyfam.even_hermite_closed(0.2, 0.0)
    assert got.real == pytest.approx(0.7453559924999299, abs=1e-15)
    assert got.imag == 0.0


def test_even_hermite_partial_matches_closed():
    want = polyfam.even_hermite_closed(0.1, 1.0)
    for n_terms in (80, 300):  # H_600 overflows floats
        assert abs(polyfam.even_hermite_partial(0.1, 1.0, n_terms) - want) <= 1e-10


def test_even_hermite_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="t = 10, x = 30"):
        polyfam.even_hermite_closed(10, 30)  # exp(4tx^2/(4t+1)) overflows
    with pytest.raises(DomainError, match="x = 1e.200"):
        polyfam.even_hermite_closed(10, 1e200)  # x^2 overflows: the value was nan
    with pytest.raises(DomainError, match="n_terms = 1875"):
        polyfam.even_hermite_partial(11.7, 1.84, 1875)  # the sum was nan
    assert cmath.isfinite(polyfam.even_hermite_partial(11.7, 1.84, 100))


def test_even_hermite_singularity():
    with pytest.raises(SingularityError):
        polyfam.even_hermite_closed(-0.25, 0.0)
    with pytest.raises(SingularityError):
        polyfam.even_hermite_closed(-0.3, 1.0)


# ----------------------------------------------------------- psi functions

def test_psi_values_at_zero():
    assert polyfam.psi_eval(0, 0.0).real == pytest.approx(0.7511255444649425, abs=1e-15)
    assert abs(polyfam.psi_eval(1, 0.0)) == 0.0
    assert abs(polyfam.psi_derivative(0, 0.0)) == 0.0


def test_psi_normalization_against_quadrature():
    # int psi_n^2 = 1, trapezoid is effectively exact here
    for n in (0, 3, 6):
        total = 0.0
        m = 801
        h = 20.0 / (m - 1)
        for i in range(m):
            x = -10.0 + i * h
            w = h * (0.5 if i in (0, m - 1) else 1.0)
            total += w * abs(polyfam.psi_eval(n, x)) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [-1.0, 0.0, 0.7, 2.0])
def test_psi_ladder_relations(x):
    inv = 1.0 / math.sqrt(2.0)
    for n in range(11):
        pn = polyfam.psi_eval(n, x)
        dn = polyfam.psi_derivative(n, x)
        up = (x * pn - dn) * inv
        assert abs(up - math.sqrt(n + 1) * polyfam.psi_eval(n + 1, x)) <= 1e-10
        down = (x * pn + dn) * inv
        expected = math.sqrt(n) * polyfam.psi_eval(n - 1, x) if n else 0.0
        assert abs(down - expected) <= 1e-10


def psi_ref(n, x):
    """pi^(-1/4) (2^n n!)^(-1/2) e^(-x^2/2) H_n(x) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        norm = mpmath.pi ** -0.25 / mpmath.sqrt(2 ** n * mpmath.factorial(n))
        return norm * mpmath.exp(-x * x / 2) * mpmath.hermite(n, x)


@pytest.mark.parametrize("n", list(range(11)) + [30, 60, 100, 150, 200])
def test_psi_against_mpmath(n):
    for x in (-10.0, -6.5, -2.5, -0.3, 0.0, 0.7, 1.0, 2.5, 5.0, 8.0, 10.0):
        ref = psi_ref(n, x)
        assert abs(polyfam.psi_eval(n, x) - complex(ref)) <= 1e-12 * (1 + abs(ref))
        # psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1}: not the identity the code uses
        down = mpmath.sqrt(mpmath.mpf(n) / 2) * psi_ref(n - 1, x) if n else 0
        dref = down - mpmath.sqrt(mpmath.mpf(n + 1) / 2) * psi_ref(n + 1, x)
        assert abs(polyfam.psi_derivative(n, x) - complex(dref)) <= 1e-12 * (1 + abs(dref))


@pytest.mark.parametrize("n, x", [(2000, 40.0), (2000, 38.5), (5000, 90.0), (3000, -50.0),
                                  (1500, 37.7), (60, 37.5)])
def test_psi_where_the_gaussian_underflows(n, x):
    # e^(-x^2/2) is below the smallest normal float from |x| ~ 37.6; the parent
    # returned 0 at (2000, 40) and 0.0901 for 0.0887 at (2000, 38.5)
    ref = psi_ref(n, x)
    assert abs(polyfam.psi_eval(n, x) - complex(ref)) <= 1e-11 * abs(ref)
    down = mpmath.sqrt(mpmath.mpf(n) / 2) * psi_ref(n - 1, x)
    dref = down - mpmath.sqrt(mpmath.mpf(n + 1) / 2) * psi_ref(n + 1, x)
    assert abs(polyfam.psi_derivative(n, x) - complex(dref)) <= 1e-11 * abs(dref)


# each float evaluator that takes a point x, with its other arguments fixed
X_EVALUATORS = {
    "psi_eval": lambda x: polyfam.psi_eval(3, x),
    "psi_derivative": lambda x: polyfam.psi_derivative(3, x),
    "even_hermite_partial": lambda x: polyfam.even_hermite_partial(0.1, x, 5),
    "even_hermite_closed": lambda x: polyfam.even_hermite_closed(0.1, x),
    "hermite_genfun_partial": lambda x: polyfam.hermite_genfun_partial(0.3, x, 5),
    "laguerre_genfun_partial": lambda x: polyfam.laguerre_genfun_partial(0.3, x, 1, 5),
}


@pytest.mark.parametrize("name", sorted(X_EVALUATORS))
def test_float_evaluators_reject_non_finite_x(name):
    """A nan or inf point is a DomainError, as in the Bessel evaluators, never a nan result."""
    for x in (math.nan, math.inf, -math.inf, complex(0.5, math.inf), complex(math.nan, 0)):
        with pytest.raises(DomainError, match="x must be finite"):
            X_EVALUATORS[name](x)
    assert cmath.isfinite(X_EVALUATORS[name](complex(0.5, 0.25)))


# each float evaluator with a series variable, with its other arguments fixed
T_EVALUATORS = {
    "laguerre_genfun_partial": ("t", lambda t: polyfam.laguerre_genfun_partial(t, 1.0, 0, 10)),
    "hermite_genfun_partial": ("gen_alpha", lambda a: polyfam.hermite_genfun_partial(a, 1.0, 10)),
    "even_hermite_partial": ("t", lambda t: polyfam.even_hermite_partial(t, 1.0, 10)),
    "even_hermite_closed": ("t", lambda t: polyfam.even_hermite_closed(t, 1.0)),
}


@pytest.mark.parametrize("name", sorted(T_EVALUATORS))
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
def test_float_evaluators_reject_a_non_finite_series_variable(name, t):
    arg, evaluate = T_EVALUATORS[name]
    with pytest.raises(DomainError, match=f"{arg} must be finite"):
        evaluate(t)


def test_psi_high_order_value():
    assert polyfam.psi_eval(100, 8.0).real == pytest.approx(0.225298728387552, abs=1e-13)


def test_psi_eval_holds_constant_memory():
    tracemalloc.start()
    try:
        polyfam.psi_eval(5000, 1.5)
        polyfam.psi_derivative(5000, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_384


def test_hermite_expand_orthonormality():
    coeffs = polyfam.hermite_expand(lambda x: polyfam.psi_eval(3, x), 8)
    for n, c in enumerate(coeffs):
        target = 1.0 if n == 3 else 0.0
        assert abs(c - target) <= 1e-8


def test_hermite_expand_gaussian():
    coeffs = polyfam.hermite_expand(lambda x: math.exp(-x * x / 2), 4)
    assert abs(coeffs[0] - 1.3313353638003897) <= 1e-10  # pi^(1/4)


def test_hermite_expand_zero_function():
    coeffs = polyfam.hermite_expand(lambda x: 0.0, 5)
    assert all(c == 0 for c in coeffs)


# ----------------------------------------------------------------- laguerre

# each Laguerre route with its order argument left open
LAGUERRE_ROUTES = {
    "laguerre_recurrence": lambda a: polyfam.laguerre_recurrence(3, a),
    "laguerre_operator": lambda a: polyfam.laguerre_operator(3, a),
    "laguerre_explicit": lambda a: polyfam.laguerre_explicit(3, a),
    "laguerre_genfun_partial": lambda a: polyfam.laguerre_genfun_partial(0.3, 1.0, a, 10),
}


@pytest.mark.parametrize("name", sorted(LAGUERRE_ROUTES))
@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_laguerre_routes_reject_a_non_finite_order(name, alpha):
    with pytest.raises(DomainError, match="order_alpha must be a finite rational"):
        LAGUERRE_ROUTES[name](alpha)


def test_laguerre_seeds_and_recurrence():
    ls = polyfam.laguerre_recurrence(2, 0)
    assert ls[0] == UniPoly.one()
    assert ls[2] == UniPoly({0: 1, 1: -2, 2: Fraction(1, 2)})
    ls1 = polyfam.laguerre_recurrence(1, 1)
    assert ls1[1] == UniPoly({0: 2, 1: -1})


def test_laguerre_operator_examples():
    assert polyfam.laguerre_operator(0, Fraction(7, 3)) == UniPoly.one()
    assert polyfam.laguerre_operator(1, Fraction(1, 2)) == UniPoly({0: Fraction(3, 2), 1: -1})
    assert polyfam.laguerre_operator(3, 2) == polyfam.laguerre_explicit(3, 2)


def test_laguerre_explicit_examples():
    assert polyfam.laguerre_explicit(0, 5) == UniPoly.one()
    assert polyfam.laguerre_explicit(1, 0) == UniPoly({0: 1, 1: -1})
    assert polyfam.laguerre_explicit(2, 1) == UniPoly({0: 3, 1: -3, 2: Fraction(1, 2)})


@pytest.mark.parametrize("alpha", [0, 1, 5, Fraction(1, 2), Fraction(3, 2)])
def test_laguerre_triple_equality(alpha):
    ls = polyfam.laguerre_recurrence(20, alpha)
    for n in range(21):
        assert ls[n] == polyfam.laguerre_operator(n, alpha)
        assert ls[n] == polyfam.laguerre_explicit(n, alpha)


@pytest.mark.parametrize("alpha", [-1, -3, Fraction(-5, 2), Fraction(-7, 3), Fraction(13, 7),
                                   Fraction(-1, 3), Fraction(97, 99)])
def test_laguerre_explicit_matches_binomial_sum(alpha):
    from weylfun.algebra import binom_shifted

    ls = polyfam.laguerre_recurrence(12, alpha)
    for n in range(13):
        want = UniPoly({k: binom_shifted(alpha, n, k) * Fraction((-1) ** k, math.factorial(k))
                        for k in range(n + 1)})
        assert polyfam.laguerre_explicit(n, alpha) == want == polyfam.laguerre_operator(n, alpha)
        assert ls[n] == want


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("route, low, high", [
    (polyfam.hermite_recurrence, 5, 25),
    (polyfam.hermite_operator, 5, 25),
    (lambda n: polyfam.laguerre_operator(n, _HALF), 5, 25),
    (lambda n: polyfam.laguerre_explicit(n, _HALF), 5, 25),
    (lambda n: polyfam.laguerre_recurrence(n, _HALF), 5, 25),
    (lambda n: polyfam.hermite_addition_check(n, Fraction(1, 3), Fraction(-3, 4)), 5, 12),
], ids=["hermite_recurrence", "hermite_operator", "laguerre_operator", "laguerre_explicit",
        "laguerre_recurrence", "hermite_addition_check"])
def test_exact_routes_build_no_fraction_per_term(monkeypatch, route, low, high):
    """Fractions stay at the boundary: their count does not grow with the degree."""
    built = 0
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts = []
    for n in (low, high):
        built = 0
        route(n)
        counts.append(built)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("alpha", [0, 1, Fraction(1, 2)])
def test_laguerre_degree_and_value_at_zero(alpha):
    from weylfun.algebra import binom_shifted

    for n in range(8):
        poly = polyfam.laguerre_explicit(n, alpha)
        assert poly.degree == n
        assert poly.evaluate(GaussRational(0)) == GaussRational(binom_shifted(alpha, n, 0))


def test_laguerre_numeric_spot_check_mpmath():
    for n, alpha, x in [(3, 0, 1.5), (5, 2, 0.7), (4, 0.5, 2.0)]:
        want = float(mpmath.laguerre(n, alpha, x))
        got = polyfam.laguerre_explicit(n, Fraction(str(alpha))).evaluate(complex(x)).real
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [0, 1, Fraction(3, 2)])
def test_laguerre_recurrence_residual_zero(alpha):
    polys = [polyfam.laguerre_explicit(n, alpha) for n in range(14)]
    a = Fraction(alpha)
    for n in range(1, 12):
        lin = UniPoly({0: 2 * n + a + 1, 1: -1})
        residual = polys[n + 1] * (n + 1) - lin * polys[n] + polys[n - 1] * (n + a)
        assert residual.is_zero()


def test_laguerre_genfun_values():
    got = polyfam.laguerre_genfun_partial(0.3, 1.0, 0, 60)
    want = (1 / 0.7) * math.exp(-0.3 / 0.7)
    assert abs(got - want) <= 1e-10
    got = polyfam.laguerre_genfun_partial(0.3, 0.0, 2, 60)
    assert abs(got - 0.7 ** -3) <= 1e-10
    assert polyfam.laguerre_genfun_partial(0.0, 1.0, 0, 5) == pytest.approx(1.0)


def laguerre_ref(n, alpha, x):
    """Explicit sum sum_k (-1)^k C(n+a, n-k) x^k / k! at 40 digits."""
    a = mpmath.mpf(alpha.numerator) / alpha.denominator
    x = mpmath.mpf(x)
    return mpmath.fsum(
        (-1) ** k * mpmath.binomial(n + a, n - k) * x ** k / mpmath.factorial(k)
        for k in range(n + 1)
    )


def test_partial_sums_against_mpmath():
    # points from the ranges the numeric_eval benchmark draws, edges included
    with mpmath.workdps(40):
        cases = []
        for a, x, n in ((0.8, 2.0, 60), (-0.8, 2.0, 60), (0.35, -1.2, 25)):
            ref = mpmath.fsum(
                mpmath.mpf(a) ** k / mpmath.factorial(k) * mpmath.hermite(k, x)
                for k in range(n + 1)
            )
            cases.append((polyfam.hermite_genfun_partial(a, x, n), ref))
        for t, x, n in ((-0.2, 2.0, 40), (0.2, -2.0, 40), (0.05, 0.7, 10)):
            ref = mpmath.fsum(
                mpmath.mpf(t) ** k / mpmath.factorial(k) * mpmath.hermite(2 * k, x)
                for k in range(n + 1)
            )
            cases.append((polyfam.even_hermite_partial(t, x, n), ref))
        for t, x, alpha, n in ((0.6, 6.0, "5", 60), (0.6, 6.0, "0", 60),
                               (-0.5, 0.1, "-1/2", 20), (0.3, 3.0, "3/2", 44)):
            alpha = Fraction(alpha)
            ref = mpmath.fsum(
                mpmath.mpf(t) ** k * laguerre_ref(k, alpha, x) for k in range(n + 1)
            )
            cases.append((polyfam.laguerre_genfun_partial(t, x, alpha, n), ref))
        for got, ref in cases:
            assert abs(got - complex(ref)) <= 1e-12 * (1 + abs(ref))


def test_float_evaluators_do_not_reach_the_exact_layer(monkeypatch):
    def exact_layer(*args, **kwargs):
        raise AssertionError("a float evaluator built or evaluated an exact polynomial")

    monkeypatch.setattr(polyfam, "_hermite_upto", exact_layer)
    monkeypatch.setattr(polyfam, "laguerre_recurrence", exact_layer)
    monkeypatch.setattr(UniPoly, "evaluate", exact_layer)
    polyfam.psi_eval(12, 0.4)
    polyfam.psi_derivative(12, 0.4)
    polyfam.hermite_expand(lambda x: math.exp(-x * x / 2), 6)
    polyfam.hermite_genfun_partial(0.5, 1.0, 20)
    polyfam.even_hermite_partial(0.1, 1.0, 20)
    polyfam.laguerre_genfun_partial(0.3, 1.0, Fraction(1, 2), 20)


def test_laguerre_genfun_domain():
    with pytest.raises(DomainError):
        polyfam.laguerre_genfun_partial(1.0, 1.0, 0, 10)
