"""Named identity checks and the machine-readable report.

Every invariant of the algebra, weyl, polyfam, bessel, and disentangle
modules is registered here under a stable name.  Each check runs at fixed
values (grid, orders, tolerance), recorded in its params.  Checks are pure
and deterministic for a fixed seed; randomized checks draw from a generator
seeded by it.  A check record and the report are plain JSON data.
"""

from __future__ import annotations

import cmath
import fnmatch
import json
import math
import random
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain

from . import bessel, disentangle, polyfam, weyl
from .algebra import GaussRational, UniPoly, _reduced, binom_shifted
from .errors import NotCentralError, UnknownCheckError

SEED = 20260801


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _record(params, lhs, rhs, abs_err, tolerance, exact) -> dict:
    """One check record, less the "name" that the registry adds."""
    return {
        "params": {k: str(v) for k, v in params.items()},
        "lhs": _complex_obj(complex(lhs)),
        "rhs": _complex_obj(complex(rhs)),
        "abs_err": abs_err,
        "tolerance": tolerance,
        "exact": exact,
        "pass": abs_err <= tolerance,
    }


def _exact_result(params, pairs, lhs=0j, rhs=0j) -> dict:
    """A record whose abs_err counts the unequal (lhs, rhs) pairs, by their own ==."""
    mismatches = sum(1 for a, b in pairs if a != b)
    return _record(params, lhs, rhs, float(mismatches), 0.0, True)


def _numeric_result(params, pairs, tol, scale=None) -> dict:
    """Aggregate (lhs, rhs) pairs of floats or complexes into a worst-case check record.

    A pair's error is abs(lhs - rhs), bit-equal to that of complex(lhs) and complex(rhs);
    with scale it is divided by scale(lhs, rhs) (relative-style bounds).  A
    NaN error counts as infinite, so a non-finite pair fails the check.
    """
    worst = -1.0
    wl = wr = 0j
    for lhs, rhs in pairs:
        err = abs(lhs - rhs)
        if scale is not None:
            err /= scale(lhs, rhs)
        if math.isnan(err):
            err = math.inf
        if err > worst:
            worst, wl, wr = err, complex(lhs), complex(rhs)
    return _record(params, wl, wr, max(worst, 0.0), tol, False)


# ------------------------------------------------------- seeded generators

def _rand_gauss(rng) -> GaussRational:
    a, b, c, d = rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 3)
    return _reduced(a * d, c * b, b * d)


def _rand_poly(rng, max_degree=4) -> UniPoly:
    deg = rng.randint(0, max_degree)
    return UniPoly({k: _rand_gauss(rng) for k in range(deg + 1)})


def _rand_weylop(rng, max_exp=2) -> weyl.WeylOp:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = _rand_gauss(rng)
    op = weyl.WeylOp(terms)
    return op if not op.is_zero() else weyl.WeylOp.identity()


REGISTRY: dict = {}


def _register(fn):
    """Register fn(seed) under its name less "check_"; its record takes that name."""
    name = fn.__name__.removeprefix("check_")
    REGISTRY[name] = lambda seed: {"name": name, **fn(seed)}
    return REGISTRY[name]


# ---------------------------------------------------------------- algebra

@_register
def check_algebra_ring_axioms(seed: int):
    trials = 25
    rng = random.Random(seed)

    def pairs():  # streamed: a list would hold 200 products at once
        for _ in range(trials):
            a, b, c = (_rand_poly(rng) for _ in range(3))
            yield (a + b) + c, a + (b + c)
            yield (a * b) * c, a * (b * c)
            yield a * b, b * a
            yield a * (b + c), a * b + a * c

    return _exact_result({"trials": trials}, pairs())


@_register
def check_algebra_leibniz_rule(seed: int):
    trials, max_degree = 25, 8
    rng = random.Random(seed + 1)
    pairs = []
    for _ in range(trials):
        a = _rand_poly(rng, max_degree)
        b = _rand_poly(rng, max_degree)
        pairs.append(((a * b).derivative(), a.derivative() * b + a * b.derivative()))
    return _exact_result({"trials": trials, "max_degree": max_degree}, pairs)


@_register
def check_algebra_eval_multiplicative(seed: int):
    trials = 25
    rng = random.Random(seed + 2)
    pairs = []
    for _ in range(trials):
        a, b = _rand_poly(rng), _rand_poly(rng)
        x0 = _rand_gauss(rng)
        pairs.append(((a * b).evaluate(x0), a.evaluate(x0) * b.evaluate(x0)))
    return _exact_result({"trials": trials}, pairs)


@_register
def check_algebra_binom_integer_match(seed: int):
    n_max = 12
    pairs = (
        (binom_shifted(alpha, n, k), math.comb(n + alpha, n - k))
        for alpha in range(5) for n in range(n_max + 1) for k in range(n + 1)
    )
    return _exact_result({"n_max": n_max}, pairs)


# ------------------------------------------------------------------- weyl

def _x2():
    return weyl.WeylOp({(2, 0): 1})


def _p2():
    return weyl.WeylOp({(0, 2): 1})


@_register
def check_weyl_commutator_table(seed: int):
    x, p = weyl.WeylOp.x(), weyl.WeylOp.p()
    i = GaussRational(0, 1)
    table = [
        (weyl.commutator(x, p), weyl.WeylOp.scalar(i)),
        (weyl.commutator(_x2(), p), weyl.WeylOp({(1, 0): 2 * i})),
        (weyl.commutator(_x2(), weyl.xp_plus_px), weyl.WeylOp({(2, 0): 4 * i})),
        (weyl.commutator(weyl.xp_plus_px, _p2()), weyl.WeylOp({(0, 2): 4 * i})),
        (weyl.commutator(_x2(), _p2()), weyl.WeylOp({(0, 0): 2, (1, 1): 4 * i})),
    ]
    return _exact_result({}, table)


@_register
def check_weyl_commutator_antisymmetry(seed: int):
    trials = 25
    rng = random.Random(seed + 3)
    pairs = []
    for _ in range(trials):
        a, b = _rand_weylop(rng, 3), _rand_weylop(rng, 3)
        pairs.append((weyl.commutator(a, b), -weyl.commutator(b, a)))
    return _exact_result({"trials": trials}, pairs)


@_register
def check_weyl_jacobi_identity(seed: int):
    trials = 15
    rng = random.Random(seed + 4)
    pairs = []
    for _ in range(trials):
        a, b, c = (_rand_weylop(rng) for _ in range(3))
        total = (
            weyl.commutator(a, weyl.commutator(b, c))
            + weyl.commutator(b, weyl.commutator(c, a))
            + weyl.commutator(c, weyl.commutator(a, b))
        )
        pairs.append((total, weyl.WeylOp()))
    return _exact_result({"trials": trials}, pairs)


@_register
def check_weyl_action_homomorphism(seed: int):
    trials = 15
    rng = random.Random(seed + 5)
    pairs = []
    for _ in range(trials):
        a, b = _rand_weylop(rng), _rand_weylop(rng)
        q = _rand_poly(rng)
        lhs = weyl.apply_to_poly(a * b, q)
        pairs.append((lhs, weyl.apply_to_poly(a, weyl.apply_to_poly(b, q))))
    return _exact_result({"trials": trials}, pairs)


@_register
def check_weyl_normal_order_confluence(seed: int):
    trials = 15
    rng = random.Random(seed + 6)

    def pairs():  # streamed: a list would hold every four-factor product at once
        for _ in range(trials):
            factors = [_rand_weylop(rng) for _ in range(4)]
            left = factors[0]
            for w in factors[1:]:
                left = left * w
            right = factors[-1]
            for w in reversed(factors[:-1]):
                right = w * right
            yield left, right
            yield left, (factors[0] * factors[1]) * (factors[2] * factors[3])

    return _exact_result({"trials": trials}, pairs())


def _hadamard_cases(f_values=(1, Fraction(1, 3))):
    """The exactly-terminating conjugations with their expected results."""
    x, p = weyl.WeylOp.x(), weyl.WeylOp.p()
    i = GaussRational(0, 1)
    cases = [
        (_x2(), p, GaussRational(1), weyl.WeylOp({(0, 1): 1, (1, 0): 2 * i})),
        (x, p, GaussRational(1), weyl.WeylOp({(0, 1): 1, (0, 0): i})),
    ]
    for f in f_values:
        gf = GaussRational(f)
        cases.append(
            (_x2(), weyl.xp_plus_px, gf, weyl.xp_plus_px + weyl.WeylOp({(2, 0): 4 * i * gf}))
        )
        cases.append(
            (
                _x2(),
                _p2(),
                gf,
                _p2() + weyl.xp_plus_px * (2 * i * gf) + weyl.WeylOp({(2, 0): -4 * gf * gf}),
            )
        )
    return cases


@_register
def check_weyl_hadamard_cases(seed: int):
    pairs = [
        (weyl.hadamard_conjugate(a, b, xi), weyl.Terminated(want))
        for a, b, xi, want in _hadamard_cases()
    ]
    eig = weyl.hadamard_conjugate(weyl.xp_plus_px, _p2(), GaussRational(1))
    pairs.append((eig, weyl.Eigen(GaussRational(0, 4), _p2())))
    return _exact_result({}, pairs)


@_register
def check_weyl_hadamard_taylor_check(seed: int):
    order, xi, tol = 20, Fraction(1, 10), 1e-10
    probes = [UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)]
    points = (0.0, 0.5, 1.0)
    pairs = []
    for a, b, _, _ in _hadamard_cases(f_values=(xi,)):
        conj = weyl.hadamard_conjugate(a, b, GaussRational(xi))
        for q in probes:
            inner = weyl.apply_exp_taylor(a, GaussRational(-xi), q, order)
            mid = weyl.apply_to_poly(b, inner)
            lhs_poly = weyl.apply_exp_taylor(a, GaussRational(xi), mid, order)
            rhs_poly = weyl.apply_to_poly(conj.result, q)
            for x0 in points:
                pairs.append((lhs_poly.evaluate(x0), rhs_poly.evaluate(x0)))
    return _numeric_result({"order": order, "xi": xi}, pairs, tol)


@_register
def check_weyl_bch_central_prefactor(seed: int):
    x, p = weyl.WeylOp.x(), weyl.WeylOp.p()
    c = weyl.central_bch_prefactor(x * 2, p * GaussRational(0, -1))
    pairs = [(c, GaussRational(2)), (weyl.central_bch_prefactor(x, x), GaussRational(0))]
    try:
        weyl.central_bch_prefactor(_x2(), p)
        raised = False
    except NotCentralError:
        raised = True
    pairs.append((raised, True))
    return _exact_result({}, pairs, lhs=complex(c), rhs=2)


# ---------------------------------------------------------------- hermite

@_register
def check_hermite_triple_equality(seed: int):
    n_max = 25
    hs = polyfam.hermite_recurrence(n_max)

    def pairs():  # streamed: one n's route results are alive at a time
        steps = zip(range(n_max + 1), polyfam._rodrigues_steps(), polyfam._ladder_powers())
        for n, rodrigues, power in steps:
            yield hs[n], rodrigues
            yield hs[n], polyfam._hermite_from_ladder(n, power)

    return _exact_result({"n_max": n_max}, pairs())


@_register
def check_hermite_derivative_relation(seed: int):
    n_max = 25
    hs = polyfam.hermite_recurrence(n_max)
    pairs = ((hs[n].derivative(), hs[n - 1] * (2 * n)) for n in range(1, n_max + 1))
    return _exact_result({"n_max": n_max}, pairs)


@_register
def check_hermite_ode_residual(seed: int):
    n_max = 25
    pairs = ((polyfam.hermite_ode_residual(n), UniPoly()) for n in range(n_max + 1))
    return _exact_result({"n_max": n_max}, pairs)


@_register
def check_hermite_addition_formula(seed: int):
    n_max, trials = 12, 25
    rng = random.Random(seed + 7)
    pairs = []
    for _ in range(trials):
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        pairs.extend(polyfam.hermite_addition_check(n, x0, y0) for n in range(n_max + 1))
    return _exact_result({"n_max": n_max, "trials": trials}, pairs)


@_register
def check_hermite_generating_function(seed: int):
    a, n_terms, tol = 0.5, 40, 1e-12
    pairs = []
    for i in range(9):
        x = -2.0 + 0.5 * i
        lhs = polyfam.hermite_genfun_partial(a, x, n_terms)
        rhs = cmath.exp(-a * a + 2 * a * x)
        pairs.append((lhs, rhs))
    return _numeric_result({"gen_alpha": a, "n_terms": n_terms}, pairs, tol)


@_register
def check_even_hermite_sum(seed: int):
    ts, xs, N, tol = [0.05, 0.1, 0.2], [-2.0, -1.0, 0.0, 1.0, 2.0], 80, 1e-9
    pairs = []
    for tv in ts:
        for xv in xs:
            lhs = polyfam.even_hermite_partial(tv, xv, N)
            rhs = polyfam.even_hermite_closed(tv, xv)
            pairs.append((lhs, rhs))
    return _numeric_result(
        {"t": ts, "x": xs, "N": N}, pairs, tol, scale=lambda lhs, rhs: 1.0 + abs(rhs)
    )


@_register
def check_psi_ladder_relations(seed: int):
    n_max, tol = 10, 1e-10
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    pairs = []
    for x in (-1.0, 0.0, 0.7, 2.0):
        for n in range(n_max + 1):
            pn = polyfam.psi_eval(n, x)
            dn = polyfam.psi_derivative(n, x)
            raised = (x * pn - dn) * inv_sqrt2
            pairs.append((raised, math.sqrt(n + 1) * polyfam.psi_eval(n + 1, x)))
            lowered = (x * pn + dn) * inv_sqrt2
            down = math.sqrt(n) * polyfam.psi_eval(n - 1, x) if n else 0j
            pairs.append((lowered, down))
    return _numeric_result({"n_max": n_max}, pairs, tol)


@_register
def check_psi_expansion_orthonormality(seed: int):
    n_max, tol = 8, 1e-8
    coeffs = polyfam.hermite_expand(lambda x: polyfam.psi_eval(3, x), n_max)
    pairs = [(c, 1.0 if n == 3 else 0.0) for n, c in enumerate(coeffs)]
    return _numeric_result(
        {"n_max": n_max, "half_width": polyfam.EXPAND_HALF_WIDTH, "nodes": polyfam.EXPAND_NODES},
        pairs, tol,
    )


# --------------------------------------------------------------- laguerre

_LAGUERRE_ORDERS = (0, 1, 5, Fraction(1, 2), Fraction(3, 2))


@_register
def check_laguerre_triple_equality(seed: int):
    n_max = 20

    def pairs():  # streamed: one n's route results are alive at a time
        for alpha in _LAGUERRE_ORDERS:
            ls = polyfam.laguerre_recurrence(n_max, alpha)
            for n in range(n_max + 1):
                yield ls[n], polyfam.laguerre_operator(n, alpha)
                yield ls[n], polyfam.laguerre_explicit(n, alpha)

    return _exact_result({"n_max": n_max, "orders": list(map(str, _LAGUERRE_ORDERS))}, pairs())


@_register
def check_laguerre_recurrence_residual(seed: int):
    n_max = 12
    pairs = []
    for alpha in _LAGUERRE_ORDERS:
        polys = [polyfam.laguerre_explicit(n, alpha) for n in range(n_max + 2)]
        a = Fraction(alpha)
        for n in range(1, n_max + 1):
            lin = UniPoly({0: 2 * n + a + 1, 1: -1})
            residual = polys[n + 1] * (n + 1) - lin * polys[n] + polys[n - 1] * (n + a)
            pairs.append((residual, UniPoly()))
    return _exact_result({"n_max": n_max}, pairs)


@_register
def check_laguerre_generating_function(seed: int):
    t, n_terms, tol = 0.3, 60, 1e-10
    pairs = []
    for alpha in (0, 2):
        for x in (0.0, 1.0, 3.0):
            lhs = polyfam.laguerre_genfun_partial(t, x, alpha, n_terms)
            rhs = (1 - t) ** (-(alpha + 1)) * math.exp(-x * t / (1 - t))
            pairs.append((lhs, rhs))
    return _numeric_result({"t": t, "n_terms": n_terms}, pairs, tol)


# ----------------------------------------------------------------- bessel

_BESSEL_XS = (0.5, 1.0, 5.0, 10.0)


@_register
def check_bessel_cross_method(seed: int):
    n_max, tol = 10, 1e-12
    pairs = []
    for x in _BESSEL_XS:
        miller = bessel.j_miller(n_max, x)
        for n in range(n_max + 1):
            s = bessel.j_series(n, x)
            q = bessel.j_integral_auto(n, x)
            pairs.append((s, q))
            pairs.append((s, miller[n]))
    return _numeric_result(
        {"n_max": n_max, "x": list(_BESSEL_XS)}, pairs, tol,
        scale=lambda lhs, rhs: 1.0 + abs(lhs),
    )


@_register
def check_bessel_generating_function(seed: int):
    x, n_cut, tol = 1.0, 40, 1e-12
    pairs = []
    for t in (0.7, 1.3, -0.5):
        lhs = bessel.j_genfun_partial(t, x, n_cut)
        rhs = math.exp(x * (t - 1.0 / t) / 2.0)
        pairs.append((lhs, rhs))
    return _numeric_result({"x": x, "n_cut": n_cut}, pairs, tol)


@_register
def check_bessel_recurrence_residual(seed: int):
    n_max, tol = 8, 1e-12
    pairs = []
    for x in (1.0, 5.0):
        for n in range(1, n_max + 1):
            lhs = (2.0 * n / x) * bessel.j_signed(n, x)
            rhs = bessel.j_signed(n - 1, x) + bessel.j_signed(n + 1, x)
            pairs.append((lhs, rhs))
    return _numeric_result({"n_max": n_max}, pairs, tol)


@_register
def check_bessel_bounded_and_parity(seed: int):
    n_max, tol = 10, 1e-12
    pairs = []
    for x in _BESSEL_XS:
        for n in range(n_max + 1):
            v = bessel.j_signed(n, x)
            pairs.append((max(abs(v) - 1.0, 0.0), 0.0))  # |J_n| <= 1
            pairs.append((bessel.j_signed(n, -x), (-1.0) ** n * v))
    return _numeric_result({"n_max": n_max}, pairs, tol)


@_register
def check_bessel_derivative_vs_finite_difference(seed: int):
    h1 = 1e-6
    fd1 = (bessel.j_signed(0, 1.0 + h1) - bessel.j_signed(0, 1.0 - h1)) / (2 * h1)
    d1 = bessel.j_derivative_m(0, 1, 1.0)
    h2 = 1e-4
    fd2 = (
        bessel.j_signed(3, 2.0 + h2) - 2 * bessel.j_signed(3, 2.0) + bessel.j_signed(3, 2.0 - h2)
    ) / (h2 * h2)
    d2 = bessel.j_derivative_m(3, 2, 2.0)
    # the second difference is good to ~1e-6, not 1e-8: compare it at 1/100 scale
    pairs = [(d1, fd1), (d2 / 100.0, fd2 / 100.0)]
    return _numeric_result({"steps": [h1, h2]}, pairs, 1e-8)


@_register
def check_bessel_addition(seed: int):
    cases, K, tol = [(0, 1.1, 0.7), (1, 2.0, 0.5), (3, 2.0, 2.0)], 40, 1e-12
    pairs = []
    for n, x, y in cases:
        pairs.append((bessel.j_addition(n, x, y, K), bessel.j_signed(n, x + y)))
    return _numeric_result({"cases": cases, "K": K}, pairs, tol)


@_register
def check_bessel_jacobi_anger(seed: int):
    x, n_cut, tol = 2.0, 40, 1e-12
    pairs = []
    for y in (0.0, math.pi / 3.0, 1.2):
        cos_sum, sin_sum = bessel.jacobi_anger_partial(x, y, n_cut)
        pairs.append((cos_sum, cmath.exp(1j * x * math.cos(y))))
        pairs.append((sin_sum, cmath.exp(1j * x * math.sin(y))))
    return _numeric_result({"x": x, "n_cut": n_cut}, pairs, tol)


@_register
def check_bessel_translation(seed: int):
    m_cut, tol = 30, 1e-10
    pairs = []
    for n, x, y in ((0, 1.0, 0.5), (2, 2.0, -0.3)):
        lhs = bessel.j_translate_partial(n, x, y, m_cut)
        rhs = bessel.j_signed(n, x + y)
        pairs.append((lhs, rhs))
    return _numeric_result({"m_cut": m_cut}, pairs, tol)


@_register
def check_bessel_ode_residual(seed: int):
    n_max, tol = 5, 1e-10
    pairs = []
    for x in (0.5, 1.0, 2.0, 5.0):
        for n in range(n_max + 1):
            res = bessel.j_ode_residual(n, x) / (1.0 + x * x)
            pairs.append((res, 0.0))
    return _numeric_result({"n_max": n_max}, pairs, tol)


# ------------------------------------------------------------ disentangle

@_register
def check_disentangle_closed_form_residual(seed: int):
    samples, tol = 100, 1e-12
    pairs = []
    for k in range(samples):
        t = 0.2 * k / (samples - 1)
        w = 4.0 * t + 1.0
        f, g, _ = disentangle._closed_fgh(t)
        pairs.append((4.0 / (w * w), 4.0 - 8.0 * f + 4.0 * f * f))
        pairs.append((-2j / w, -2j + 2j * f))
        pairs.append((-1.0 / (w * w) + 0j, -cmath.exp(-4j * g)))
    return _numeric_result({"samples": samples}, pairs, tol)


@_register
def check_disentangle_rk4_vs_closed(seed: int):
    t_end, steps, tol = 0.2, 10_000, 1e-10
    traj = disentangle.disentangle_ode_trajectory(disentangle.EVEN_HERMITE_EXPONENT, t_end, steps)
    ts, *fgh = zip(*traj)
    closed = chain.from_iterable(map(disentangle._closed_fgh, ts))
    pairs = zip(chain.from_iterable(zip(*fgh)), closed)
    return _numeric_result({"t_end": t_end, "steps": steps}, pairs, tol)


@_register
def check_disentangle_system_specialization(seed: int):
    got = disentangle.system_coefficients(disentangle.EVEN_HERMITE_EXPONENT)
    want = ((4 + 0j, -8 + 0j, 4 + 0j), (-2j, 2j), -1 + 0j)
    return _exact_result({}, [(got, want)])


@_register
def check_disentangle_operator_equivalence(seed: int):
    order, tol = 30, 1e-8
    probes = [UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)]
    op = disentangle._as_weylop(disentangle.EVEN_HERMITE_EXPONENT)
    powers = [weyl._taylor_powers(op, q, order) for q in probes]  # W^m q, shared by both times
    pairs = []
    for t in (0.02, 0.05):
        form = disentangle.disentangle_closed(t)
        for q, q_powers in zip(probes, powers):
            factored = disentangle.apply_factored(form, q)
            taylor = weyl._taylor_sum(op, q, q_powers, GaussRational(Fraction(t)))
            for x in (0.0, 0.5, 1.0):
                pairs.append((factored.value_at(x), taylor.evaluate(x)))
    return _numeric_result({"order": order}, pairs, tol)


@_register
def check_disentangle_initial_condition(seed: int):
    cases = [
        disentangle.EVEN_HERMITE_EXPONENT,
        disentangle.QuadExponent(0, 0, 1),
        disentangle.QuadExponent(1, 1j, 0.5),
    ]
    forms = [disentangle.disentangle_ode(q, 0.0) for q in cases]
    forms.append(disentangle.disentangle_closed(0.0))
    return _exact_result({}, [((f.f, f.g, f.h), (0, 0, 0)) for f in forms])


# ------------------------------------------------------------- the runner

def run_check(name: str, seed: int = SEED) -> dict:
    """Run one registered check at its fixed values."""
    if name not in REGISTRY:
        raise UnknownCheckError(f"unknown check {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[name](seed)


def run_suite(filter: str = "*", seed: int = SEED) -> dict:
    """The report of every registered check whose name matches the fnmatch filter."""
    checks = [fn(seed) for name, fn in REGISTRY.items() if fnmatch.fnmatchcase(name, filter)]
    passed = sum(1 for c in checks if c["pass"])
    return {
        "suite_name": "weylfun-identities",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "counts": {"pass": passed, "fail": len(checks) - passed},
        "config": {"filter": filter, "seed": seed},
        "checks": checks,
    }


def report_serialize(report: dict) -> str:
    """Stable JSON text: sorted keys, shortest round-trip float form."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
