import cmath
import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylfun import disentangle, polyfam, weyl
from weylfun.algebra import GaussRational, UniPoly
from weylfun.disentangle import (
    EVEN_HERMITE_EXPONENT,
    FactoredForm,
    QuadExponent,
    apply_factored,
    disentangle_closed,
    disentangle_ode,
    disentangle_ode_trajectory,
    even_hermite_via_disentangle,
    exp_taylor_apply,
    system_coefficients,
)
from weylfun.errors import BlowUpError, DomainError, SingularityError


# ------------------------------------------------------------ closed forms

def test_closed_at_zero_is_identity():
    form = disentangle_closed(0.0)
    assert form.f == 0 and form.g == 0 and form.h == 0


def test_closed_at_quarter():
    form = disentangle_closed(0.25)
    assert form.f == pytest.approx(0.5)
    assert form.g == pytest.approx(-0.5j * math.log(2.0))
    assert form.h == pytest.approx(-0.125)


def test_closed_pole_structure():
    assert disentangle_closed(0.1).f == pytest.approx(2.0 / 7.0)
    with pytest.raises(SingularityError):
        disentangle_closed(-0.25)
    with pytest.raises(SingularityError):
        disentangle_closed(-0.4)


def test_closed_satisfies_system():
    for k in range(101):
        t = 0.2 * k / 100
        w = 4 * t + 1
        form = disentangle_closed(t)
        f, g = form.f, form.g
        assert abs(4 / w ** 2 - (4 - 8 * f + 4 * f * f)) <= 1e-12
        assert abs(-2j / w - (-2j + 2j * f)) <= 1e-12
        assert abs(-1 / w ** 2 - (-cmath.exp(-4j * g))) <= 1e-12


# ------------------------------------------------------------- ODE route

def test_ode_zero_time():
    for q in (EVEN_HERMITE_EXPONENT, QuadExponent(0, 0, 1)):
        form = disentangle_ode(q, 0.0, 100)
        assert form.f == 0 and form.g == 0 and form.h == 0


def test_ode_matches_closed_form():
    got = disentangle_ode(EVEN_HERMITE_EXPONENT, 0.1, 10_000)
    want = disentangle_closed(0.1)
    assert abs(got.f - want.f) <= 1e-10
    assert abs(got.g - want.g) <= 1e-10
    assert abs(got.h - want.h) <= 1e-10


def test_ode_trajectory_max_error():
    worst = 0.0
    for t, f, g, h in disentangle_ode_trajectory(EVEN_HERMITE_EXPONENT, 0.2, 10_000):
        want = disentangle_closed(t)
        worst = max(worst, abs(f - want.f), abs(g - want.g), abs(h - want.h))
    assert worst <= 1e-10


def test_ode_pure_p2_exponent():
    form = disentangle_ode(QuadExponent(0, 0, 1), 0.5, 200)
    assert form.f == 0 and form.g == 0
    assert form.h == pytest.approx(0.5)


def test_ode_blow_up_past_singularity():
    with pytest.raises(BlowUpError) as err:
        disentangle_ode(EVEN_HERMITE_EXPONENT, -0.4, 2000)
    assert err.value.t_reached < 0.0


def test_ode_step_validation():
    for t_end in (0.1, 0.0):  # t = 0 takes the identity shortcut, after the check
        with pytest.raises(ValueError, match="steps must be >= 1"):
            disentangle_ode(EVEN_HERMITE_EXPONENT, t_end, 0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda t: disentangle_ode(EVEN_HERMITE_EXPONENT, t, 100), "t_end", id="ode"),
    pytest.param(lambda t: next(disentangle_ode_trajectory(EVEN_HERMITE_EXPONENT, t, 100)),
                 "t_end", id="trajectory"),
    pytest.param(disentangle_closed, "t", id="closed"),
    pytest.param(lambda t: even_hermite_via_disentangle(t, 0.5), "t", id="pipeline"),
])
def test_non_finite_time_is_a_domain_error(call, name, t):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got"):
        call(t)


def _rk4_model(q, t_end, steps):
    """The coupled stage-by-stage RK4 on (f, g, h), one stage of all three at a time."""
    (f0, f1, f2), (g0, g1), h0 = system_coefficients(q)

    def rhs(f, g):
        return f0 + f1 * f + f2 * f * f, g0 + g1 * f, h0 * cmath.exp(-4j * g)

    f = g = h = 0j
    yield 0.0, f, g, h
    dt = t_end / steps
    half = 0.5 * dt
    for k in range(steps):
        t_k = (k + 1) * dt
        try:
            a1, b1, c1 = rhs(f, g)
            a2, b2, c2 = rhs(f + half * a1, g + half * b1)
            a3, b3, c3 = rhs(f + half * a2, g + half * b2)
            a4, b4, c4 = rhs(f + dt * a3, g + dt * b3)
        except OverflowError:
            raise BlowUpError(t_k) from None
        f += dt * (a1 + 2 * a2 + 2 * a3 + a4) / 6
        g += dt * (b1 + 2 * b2 + 2 * b3 + b4) / 6
        h += dt * (c1 + 2 * c2 + 2 * c3 + c4) / 6
        if not (abs(f) < 1e100 and abs(g) < 1e100 and abs(h) < 1e100):
            raise BlowUpError(t_k)
        yield t_k, f, g, h


# the four exponents of the benchmark's RK4 operations
WORKLOAD_EXPONENTS = (
    QuadExponent(4.0, -2j, -1.0),
    QuadExponent(1.0, 0.5j, -0.5),
    QuadExponent(0.25, 0.5, 0.0),
    QuadExponent(1j, 0.25 + 0.25j, 0.5),
)


@pytest.mark.parametrize("q", WORKLOAD_EXPONENTS)
@pytest.mark.parametrize("t_end, steps", [(0.2, 10_000), (0.05, 250), (0.15, 2500), (-0.15, 2500)])
def test_ode_trajectory_matches_the_coupled_stage_model(q, t_end, steps):
    """A wrong stage weight moves the trajectory by order dt or dt^2, far above 1e-15."""
    got = list(disentangle_ode_trajectory(q, t_end, steps))
    want = list(_rk4_model(q, t_end, steps))
    assert len(got) == len(want) == steps + 1
    for point, model in zip(got, want):
        assert point[0] == model[0]
        for v, m in zip(point[1:], model[1:]):
            assert abs(v - m) <= 1e-15 * (1 + abs(m))


@pytest.mark.parametrize("q, t_end, steps", [
    (EVEN_HERMITE_EXPONENT, -0.4, 2000),
    (QuadExponent(1, 0, -3), 2.0, 5000),
])
def test_ode_blow_up_time_matches_the_coupled_stage_model(q, t_end, steps):
    with pytest.raises(BlowUpError) as got:
        disentangle_ode(q, t_end, steps)
    with pytest.raises(BlowUpError) as want:
        for _ in _rk4_model(q, t_end, steps):
            pass
    assert got.value.t_reached == want.value.t_reached


# --------------------------------------------------------- specialization

def test_system_specialization_coefficients():
    got = system_coefficients(EVEN_HERMITE_EXPONENT)
    assert got == ((4 + 0j, -8 + 0j, 4 + 0j), (-2j, 2j), -1 + 0j)


def test_system_general_rhs_shape():
    # a pure p^2 exponent keeps f and g frozen at 0
    (f0, f1, f2), (g0, g1), h0 = system_coefficients(QuadExponent(0, 0, 1))
    assert (f0, f1, f2) == (0, 0, -4)
    assert (g0, g1) == (0, -2j)
    assert h0 == 1


# --------------------------------------------------------- factored action

def test_apply_factored_constant_under_p2():
    from weylfun.disentangle import FactoredForm

    form = FactoredForm(0, 0, -0.37, 0.1)
    out = apply_factored(form, UniPoly.one())
    assert out.quad_coeff == 0
    assert out.value_at(1.3) == pytest.approx(1.0)


def test_apply_factored_monomial_scaling():
    from weylfun.disentangle import FactoredForm

    g = 0.21
    form = FactoredForm(0, g, 0, 0.1)
    out = apply_factored(form, UniPoly.x())
    want = cmath.exp(-3j * g) * 0.5
    assert out.value_at(0.5) == pytest.approx(want)


def test_apply_factored_reproduces_closed_sum():
    for t in (0.05, 0.2):
        form = disentangle_closed(t)
        out = apply_factored(form, UniPoly.one())
        for x in (0.0, 0.7, 1.5):
            want = polyfam.even_hermite_closed(t, x)
            assert abs(out.value_at(x) - want) <= 1e-13


def test_apply_factored_builds_no_scalar(monkeypatch):
    """Coefficients are read as floats straight from the numerators, with no gcd."""
    from weylfun import algebra

    calls = 0
    original = algebra._reduced

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    q = UniPoly({k: GaussRational(Fraction(k + 1, 3), Fraction(-k, 7)) for k in range(7)})
    form = disentangle_closed(0.1)
    monkeypatch.setattr(algebra, "_reduced", counting)
    apply_factored(form, q)
    assert calls == 0


def _apply_factored_model(form, q):
    """apply_factored reading each coefficient as complex(c) over q.terms()."""
    smoothed = [0j] * (q.degree + 1 if not q.is_zero() else 1)
    d, weight, m = q, 1.0 + 0j, 0
    while not d.is_zero():
        for k, c in d.terms():
            smoothed[k] += weight * complex(c)
        d = d.derivative().derivative()
        weight *= -complex(form.h) / (m + 1)
        m += 1
    return tuple(ck * cmath.exp(-1j * (2 * k + 1) * form.g) for k, ck in enumerate(smoothed))


wide_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=2**60)
coeff_st = st.builds(GaussRational, wide_st, wide_st)
small_complex_st = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)


@given(st.dictionaries(st.integers(0, 9), coeff_st, max_size=7), small_complex_st,
       small_complex_st, small_complex_st)
@settings(max_examples=80)
def test_apply_factored_matches_per_coefficient_model(coeffs, f, g, h):
    """Every float is bit-identical to the complex(c) reading of a GaussRational."""
    form = FactoredForm(f, g, h, 0.1)
    q = UniPoly(coeffs)
    out = apply_factored(form, q)
    assert out.poly == _apply_factored_model(form, q)
    assert out.quad_coeff == f


# ------------------------------------------------------------ Taylor oracle

def test_exp_taylor_identity_at_t0():
    q = UniPoly({2: 3, 0: 1})
    assert exp_taylor_apply(EVEN_HERMITE_EXPONENT, 0.0, q, 10) == q


def test_exp_taylor_matches_closed_at_origin():
    got = exp_taylor_apply(EVEN_HERMITE_EXPONENT, 0.05, UniPoly.one(), 30)
    want = 1.0 / math.sqrt(1.2)
    assert abs(got.evaluate(0.0) - want) <= 1e-8


@pytest.mark.parametrize("t", [0.02, 0.05])
def test_operator_equivalence(t):
    form = disentangle_closed(t)
    for q in (UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)):
        factored = apply_factored(form, q)
        taylor = exp_taylor_apply(EVEN_HERMITE_EXPONENT, t, q, 30)
        for x in (0.0, 0.5, 1.0):
            assert abs(factored.value_at(x) - taylor.evaluate(x)) <= 1e-8


# ---------------------------------------------------------------- pipeline

def test_even_hermite_pipeline():
    assert even_hermite_via_disentangle(0.0, 0.9) == pytest.approx(1.0)
    assert even_hermite_via_disentangle(0.2, 0.0) == pytest.approx(0.7453559924999299)
    got = even_hermite_via_disentangle(0.1, 1.0)
    want = polyfam.even_hermite_partial(0.1, 1.0, 80)
    assert abs(got - want.real) <= 1e-10


def test_quad_exponent_validation():
    with pytest.raises(DomainError, match="a_x2 must be finite"):
        QuadExponent(float("nan"), 0, 0)
    with pytest.raises(DomainError, match="b_mix must be finite"):
        QuadExponent(0, complex(0, float("inf")), 0)
    with pytest.raises(DomainError, match="g must be finite"):
        FactoredForm(0.1, float("inf"), 0.0, 0.5)


def test_records_keep_their_constructor_equality_hash_and_immutability():
    q = QuadExponent(a_x2=4.0, b_mix=-2j, c_p2=-1.0)
    assert q == EVEN_HERMITE_EXPONENT and q == QuadExponent(4.0, c_p2=-1.0, b_mix=-2j)
    assert hash(q) == hash(EVEN_HERMITE_EXPONENT) == hash((4.0, -2j, -1.0))
    assert len({q, EVEN_HERMITE_EXPONENT, QuadExponent(0, 0, 1)}) == 2
    assert repr(q) == f"QuadExponent(a_x2=4.0, b_mix={-2j!r}, c_p2=-1.0)"
    assert copy.copy(q) == q == pickle.loads(pickle.dumps(q))
    with pytest.raises(AttributeError):
        q.a_x2 = 1.0
    with pytest.raises(AttributeError):
        del q.c_p2
    with pytest.raises(AttributeError):
        q.other = 1
    for bad in ((4.0, -2j), (4.0, -2j, -1.0, 0.0)):
        with pytest.raises(TypeError):
            QuadExponent(*bad)
    with pytest.raises(TypeError):
        QuadExponent(4.0, -2j, a_x2=1.0)
    with pytest.raises(DomainError, match="b_mix must be finite"):
        QuadExponent(a_x2=0, b_mix=math.nan, c_p2=0)
    with pytest.raises(ValueError, match="must be the identity"):
        FactoredForm(f=1, g=0, h=0, t=0.0)
    op = weyl.WeylOp.x()
    records = [polyfam.PolyFamily(polys=op), weyl.Terminated(result=op),
               weyl.Eigen(eigenvalue=op, op=op), disentangle.ExpQuadPoly(quad_coeff=1, poly=())]
    assert records[1] == weyl.Terminated(op) and records[1].result is op
    assert records[2].eigenvalue is op and records[2].op is op
    assert all(a != b for i, a in enumerate(records) for b in records[i + 1:])
    assert records[0] != (op,) and weyl.Eigen(1, op) != weyl.Eigen(2, op)
