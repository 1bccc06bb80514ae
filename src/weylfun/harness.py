"""Named, parameterized identity checks and the machine-readable report.

Every invariant of the algebra, weyl, polyfam, bessel, and disentangle
modules is registered here under a stable name.  Checks are pure and
deterministic for a fixed configuration; randomized checks draw from a
seeded generator recorded in the config snapshot.
"""

from __future__ import annotations

import cmath
import fnmatch
import inspect
import json
import math
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import bessel, disentangle, polyfam, weyl
from .algebra import GaussRational, UniPoly, binom_shifted
from .errors import NotCentralError, UnknownCheckError


@dataclass(frozen=True)
class SuiteConfig:
    filter: str = "*"
    seed: int = 20260801


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    tolerance: float
    exact: bool
    passed: bool


@dataclass(frozen=True)
class Report:
    suite_name: str
    timestamp: str
    checks: tuple
    counts: dict
    config: dict


def _params_map(params: dict) -> dict:
    return {k: str(v) for k, v in params.items()}


def _exact_result(name, params, mismatches, lhs=0j, rhs=0j) -> IdentityCheck:
    abs_err = 0.0 if mismatches == 0 else float(mismatches)
    return IdentityCheck(
        name=name,
        params=_params_map(params),
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=abs_err,
        tolerance=0.0,
        exact=True,
        passed=abs_err == 0.0,
    )


def _numeric_result(name, params, pairs, tol, scale=None) -> IdentityCheck:
    """Aggregate (lhs, rhs) pairs into a worst-case check record.

    With scale, the error of each pair is divided by scale(lhs, rhs)
    before comparing against the tolerance (relative-style bounds).  A
    NaN error counts as infinite, so a non-finite pair fails the check.
    """
    worst = -1.0
    wl = wr = 0j
    for lhs, rhs in pairs:
        err = abs(complex(lhs) - complex(rhs))
        if scale is not None:
            err /= scale(lhs, rhs)
        if math.isnan(err):
            err = math.inf
        if err > worst:
            worst, wl, wr = err, complex(lhs), complex(rhs)
    worst = max(worst, 0.0)
    return IdentityCheck(
        name=name,
        params=_params_map(params),
        lhs=wl,
        rhs=wr,
        abs_err=worst,
        tolerance=float(tol),
        exact=False,
        passed=worst <= float(tol),
    )


def _f(v) -> float:
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


def _i(v) -> int:
    return int(v)


# ------------------------------------------------------- seeded generators

def _rand_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _rand_gauss(rng) -> GaussRational:
    return GaussRational(_rand_fraction(rng), _rand_fraction(rng))


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
    REGISTRY[fn.__name__.removeprefix("check_")] = fn
    return fn


# ---------------------------------------------------------------- algebra

@_register
def check_algebra_ring_axioms(cfg, trials=25):
    rng = random.Random(cfg.seed)
    bad = 0
    for _ in range(_i(trials)):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        if (a + b) + c != a + (b + c):
            bad += 1
        if (a * b) * c != a * (b * c):
            bad += 1
        if a * b != b * a:
            bad += 1
        if a * (b + c) != a * b + a * c:
            bad += 1
    return _exact_result("algebra_ring_axioms", {"trials": trials}, bad)


@_register
def check_algebra_leibniz_rule(cfg, trials=25, max_degree=8):
    rng = random.Random(cfg.seed + 1)
    bad = 0
    for _ in range(_i(trials)):
        a = _rand_poly(rng, _i(max_degree))
        b = _rand_poly(rng, _i(max_degree))
        if (a * b).derivative() != a.derivative() * b + a * b.derivative():
            bad += 1
    return _exact_result(
        "algebra_leibniz_rule", {"trials": trials, "max_degree": max_degree}, bad
    )


@_register
def check_algebra_eval_multiplicative(cfg, trials=25):
    rng = random.Random(cfg.seed + 2)
    bad = 0
    for _ in range(_i(trials)):
        a, b = _rand_poly(rng), _rand_poly(rng)
        x0 = GaussRational(_rand_fraction(rng), _rand_fraction(rng))
        if (a * b).evaluate(x0) != a.evaluate(x0) * b.evaluate(x0):
            bad += 1
    return _exact_result("algebra_eval_multiplicative", {"trials": trials}, bad)


@_register
def check_algebra_binom_integer_match(cfg, n_max=12):
    bad = 0
    for alpha in range(5):
        for n in range(_i(n_max) + 1):
            for k in range(n + 1):
                if binom_shifted(alpha, n, k) != math.comb(n + alpha, n - k):
                    bad += 1
    return _exact_result("algebra_binom_integer_match", {"n_max": n_max}, bad)


# ------------------------------------------------------------------- weyl

def _x2():
    return weyl.WeylOp({(2, 0): 1})


def _p2():
    return weyl.WeylOp({(0, 2): 1})


@_register
def check_weyl_commutator_table(cfg):
    x, p = weyl.WeylOp.x(), weyl.WeylOp.p()
    i = GaussRational(0, 1)
    table = [
        (weyl.commutator(x, p), weyl.WeylOp.scalar(i)),
        (weyl.commutator(_x2(), p), weyl.WeylOp({(1, 0): 2 * i})),
        (weyl.commutator(_x2(), weyl.xp_plus_px), weyl.WeylOp({(2, 0): 4 * i})),
        (weyl.commutator(weyl.xp_plus_px, _p2()), weyl.WeylOp({(0, 2): 4 * i})),
        (weyl.commutator(_x2(), _p2()), weyl.WeylOp({(0, 0): 2, (1, 1): 4 * i})),
    ]
    bad = sum(1 for got, want in table if got != want)
    return _exact_result("weyl_commutator_table", {}, bad)


@_register
def check_weyl_commutator_antisymmetry(cfg, trials=25):
    rng = random.Random(cfg.seed + 3)
    bad = 0
    for _ in range(_i(trials)):
        a, b = _rand_weylop(rng, 3), _rand_weylop(rng, 3)
        if weyl.commutator(a, b) != -weyl.commutator(b, a):
            bad += 1
    return _exact_result("weyl_commutator_antisymmetry", {"trials": trials}, bad)


@_register
def check_weyl_jacobi_identity(cfg, trials=15):
    rng = random.Random(cfg.seed + 4)
    bad = 0
    for _ in range(_i(trials)):
        a, b, c = (_rand_weylop(rng) for _ in range(3))
        total = (
            weyl.commutator(a, weyl.commutator(b, c))
            + weyl.commutator(b, weyl.commutator(c, a))
            + weyl.commutator(c, weyl.commutator(a, b))
        )
        if not total.is_zero():
            bad += 1
    return _exact_result("weyl_jacobi_identity", {"trials": trials}, bad)


@_register
def check_weyl_action_homomorphism(cfg, trials=15):
    rng = random.Random(cfg.seed + 5)
    bad = 0
    for _ in range(_i(trials)):
        a, b = _rand_weylop(rng), _rand_weylop(rng)
        q = _rand_poly(rng)
        lhs = weyl.apply_to_poly(a * b, q)
        rhs = weyl.apply_to_poly(a, weyl.apply_to_poly(b, q))
        if lhs != rhs:
            bad += 1
    return _exact_result("weyl_action_homomorphism", {"trials": trials}, bad)


@_register
def check_weyl_normal_order_confluence(cfg, trials=15):
    rng = random.Random(cfg.seed + 6)
    bad = 0
    for _ in range(_i(trials)):
        factors = [_rand_weylop(rng) for _ in range(4)]
        left = factors[0]
        for w in factors[1:]:
            left = left * w
        right = factors[-1]
        for w in reversed(factors[:-1]):
            right = w * right
        mixed = (factors[0] * factors[1]) * (factors[2] * factors[3])
        if left != right or left != mixed:
            bad += 1
    return _exact_result("weyl_normal_order_confluence", {"trials": trials}, bad)


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
def check_weyl_hadamard_cases(cfg):
    bad = 0
    for a, b, xi, want in _hadamard_cases():
        got = weyl.hadamard_conjugate(a, b, xi)
        if not isinstance(got, weyl.Terminated) or got.result != want:
            bad += 1
    eig = weyl.hadamard_conjugate(weyl.xp_plus_px, _p2(), GaussRational(1))
    if not (
        isinstance(eig, weyl.Eigen)
        and eig.eigenvalue == GaussRational(0, 4)
        and eig.op == _p2()
    ):
        bad += 1
    return _exact_result("weyl_hadamard_cases", {}, bad)


@_register
def check_weyl_hadamard_taylor_check(cfg, order=20, tol=1e-10):
    xi = Fraction(1, 10)
    probes = [UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)]
    points = (0.0, 0.5, 1.0)
    pairs = []
    for a, b, _, _ in _hadamard_cases(f_values=(Fraction(1, 10),)):
        conj = weyl.hadamard_conjugate(a, b, GaussRational(xi))
        for q in probes:
            inner = weyl.apply_exp_taylor(a, GaussRational(-xi), q, _i(order))
            mid = weyl.apply_to_poly(b, inner)
            lhs_poly = weyl.apply_exp_taylor(a, GaussRational(xi), mid, _i(order))
            rhs_poly = weyl.apply_to_poly(conj.result, q)
            for x0 in points:
                pairs.append((lhs_poly.evaluate(x0), rhs_poly.evaluate(x0)))
    return _numeric_result(
        "weyl_hadamard_taylor_check", {"order": order, "xi": xi}, pairs, _f(tol)
    )


@_register
def check_weyl_bch_central_prefactor(cfg):
    x, p = weyl.WeylOp.x(), weyl.WeylOp.p()
    bad = 0
    c = weyl.central_bch_prefactor(x * 2, p * GaussRational(0, -1))
    if c != GaussRational(2):
        bad += 1
    if weyl.central_bch_prefactor(x, x) != GaussRational(0):
        bad += 1
    try:
        weyl.central_bch_prefactor(_x2(), p)
        bad += 1
    except NotCentralError:
        pass
    return _exact_result("weyl_bch_central_prefactor", {}, bad, lhs=complex(c), rhs=2)


# ---------------------------------------------------------------- hermite

@_register
def check_hermite_triple_equality(cfg, n_max=25):
    hs = polyfam.hermite_recurrence(_i(n_max))
    bad = 0
    for n, power in zip(range(_i(n_max) + 1), polyfam._ladder_powers()):
        if not (
            hs[n] == polyfam.hermite_rodrigues(n) == polyfam._hermite_from_ladder(n, power)
        ):
            bad += 1
    return _exact_result("hermite_triple_equality", {"n_max": n_max}, bad)


@_register
def check_hermite_derivative_relation(cfg, n_max=25):
    hs = polyfam.hermite_recurrence(_i(n_max))
    bad = 0
    for n in range(1, _i(n_max) + 1):
        if hs[n].derivative() != hs[n - 1] * (2 * n):
            bad += 1
    return _exact_result("hermite_derivative_relation", {"n_max": n_max}, bad)


@_register
def check_hermite_ode_residual(cfg, n_max=25):
    bad = sum(
        1 for n in range(_i(n_max) + 1) if not polyfam.hermite_ode_residual(n).is_zero()
    )
    return _exact_result("hermite_ode_residual", {"n_max": n_max}, bad)


@_register
def check_hermite_addition_formula(cfg, n_max=12, trials=25):
    rng = random.Random(cfg.seed + 7)
    bad = 0
    for _ in range(_i(trials)):
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        for n in range(_i(n_max) + 1):
            lhs, rhs = polyfam.hermite_addition_check(n, x0, y0)
            if lhs != rhs:
                bad += 1
    return _exact_result(
        "hermite_addition_formula", {"n_max": n_max, "trials": trials}, bad
    )


@_register
def check_hermite_generating_function(cfg, gen_alpha=0.5, n_terms=40, tol=1e-12):
    a = _f(gen_alpha)
    pairs = []
    for i in range(9):
        x = -2.0 + 0.5 * i
        lhs = polyfam.hermite_genfun_partial(a, x, _i(n_terms))
        rhs = cmath.exp(-a * a + 2 * a * x)
        pairs.append((lhs, rhs))
    return _numeric_result(
        "hermite_generating_function",
        {"gen_alpha": gen_alpha, "n_terms": n_terms},
        pairs,
        _f(tol),
    )


@_register
def check_even_hermite_sum(cfg, t=None, x=None, N=80, tol=1e-9):
    ts = [_f(t)] if t is not None else [0.05, 0.1, 0.2]
    xs = [_f(x)] if x is not None else [-2.0, -1.0, 0.0, 1.0, 2.0]
    pairs = []
    for tv in ts:
        for xv in xs:
            lhs = polyfam.even_hermite_partial(tv, xv, _i(N))
            rhs = polyfam.even_hermite_closed(tv, xv)
            pairs.append((lhs, rhs))
    return _numeric_result(
        "even_hermite_sum",
        {"t": ts, "x": xs, "N": N},
        pairs,
        _f(tol),
        scale=lambda lhs, rhs: 1.0 + abs(rhs),
    )


@_register
def check_psi_ladder_relations(cfg, n_max=10, tol=1e-10):
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    pairs = []
    for x in (-1.0, 0.0, 0.7, 2.0):
        for n in range(_i(n_max) + 1):
            pn = polyfam.psi_eval(n, x)
            dn = polyfam.psi_derivative(n, x)
            raised = (x * pn - dn) * inv_sqrt2
            pairs.append((raised, math.sqrt(n + 1) * polyfam.psi_eval(n + 1, x)))
            lowered = (x * pn + dn) * inv_sqrt2
            down = math.sqrt(n) * polyfam.psi_eval(n - 1, x) if n else 0j
            pairs.append((lowered, down))
    return _numeric_result("psi_ladder_relations", {"n_max": n_max}, pairs, _f(tol))


@_register
def check_psi_expansion_orthonormality(cfg, tol=1e-8):
    half_width, nodes = 10.0, 400
    coeffs = polyfam.hermite_expand(lambda x: polyfam.psi_eval(3, x), 8, half_width, nodes)
    pairs = [(c, 1.0 if n == 3 else 0.0) for n, c in enumerate(coeffs)]
    return _numeric_result(
        "psi_expansion_orthonormality",
        {"n_max": 8, "half_width": half_width, "nodes": nodes},
        pairs,
        _f(tol),
    )


# --------------------------------------------------------------- laguerre

_LAGUERRE_ORDERS = (0, 1, 5, Fraction(1, 2), Fraction(3, 2))


@_register
def check_laguerre_triple_equality(cfg, n_max=20):
    bad = 0
    for alpha in _LAGUERRE_ORDERS:
        ls = polyfam.laguerre_recurrence(_i(n_max), alpha)
        for n in range(_i(n_max) + 1):
            same = (
                ls[n]
                == polyfam.laguerre_operator(n, alpha)
                == polyfam.laguerre_explicit(n, alpha)
            )
            if not same:
                bad += 1
    return _exact_result(
        "laguerre_triple_equality",
        {"n_max": n_max, "orders": list(map(str, _LAGUERRE_ORDERS))},
        bad,
    )


@_register
def check_laguerre_recurrence_residual(cfg, n_max=12):
    bad = 0
    for alpha in _LAGUERRE_ORDERS:
        polys = [polyfam.laguerre_explicit(n, alpha) for n in range(_i(n_max) + 2)]
        a = Fraction(alpha)
        for n in range(1, _i(n_max) + 1):
            lin = UniPoly({0: 2 * n + a + 1, 1: -1})
            residual = polys[n + 1] * (n + 1) - lin * polys[n] + polys[n - 1] * (n + a)
            if not residual.is_zero():
                bad += 1
    return _exact_result("laguerre_recurrence_residual", {"n_max": n_max}, bad)


@_register
def check_laguerre_generating_function(cfg, t=0.3, n_terms=60, tol=1e-10):
    tv = _f(t)
    pairs = []
    for alpha in (0, 2):
        for x in (0.0, 1.0, 3.0):
            lhs = polyfam.laguerre_genfun_partial(tv, x, alpha, _i(n_terms))
            rhs = (1 - tv) ** (-(alpha + 1)) * math.exp(-x * tv / (1 - tv))
            pairs.append((lhs, rhs))
    return _numeric_result(
        "laguerre_generating_function", {"t": t, "n_terms": n_terms}, pairs, _f(tol)
    )


# ----------------------------------------------------------------- bessel

_BESSEL_XS = (0.5, 1.0, 5.0, 10.0)


@_register
def check_bessel_cross_method(cfg, n_max=10, tol=1e-12):
    pairs = []
    for x in _BESSEL_XS:
        miller = bessel.j_miller(_i(n_max), x)
        for n in range(_i(n_max) + 1):
            s = bessel.j_series(n, x)
            q = bessel.j_integral_auto(n, x)
            pairs.append((s, q))
            pairs.append((s, miller[n]))
    return _numeric_result(
        "bessel_cross_method",
        {"n_max": n_max, "x": list(_BESSEL_XS)},
        pairs,
        _f(tol),
        scale=lambda lhs, rhs: 1.0 + abs(lhs),
    )


@_register
def check_bessel_generating_function(cfg, x=1.0, n_cut=40, tol=1e-12):
    xv = _f(x)
    pairs = []
    for t in (0.7, 1.3, -0.5):
        lhs = bessel.j_genfun_partial(t, xv, _i(n_cut))
        rhs = math.exp(xv * (t - 1.0 / t) / 2.0)
        pairs.append((lhs, rhs))
    return _numeric_result(
        "bessel_generating_function", {"x": x, "n_cut": n_cut}, pairs, _f(tol)
    )


@_register
def check_bessel_recurrence_residual(cfg, n_max=8, tol=1e-12):
    pairs = []
    for x in (1.0, 5.0):
        for n in range(1, _i(n_max) + 1):
            lhs = (2.0 * n / x) * bessel.j_series(n, x)
            rhs = bessel.j_series(n - 1, x) + bessel.j_series(n + 1, x)
            pairs.append((lhs, rhs))
    return _numeric_result("bessel_recurrence_residual", {"n_max": n_max}, pairs, _f(tol))


@_register
def check_bessel_bounded_and_parity(cfg, n_max=10, tol=1e-12):
    pairs = []
    for x in _BESSEL_XS:
        for n in range(_i(n_max) + 1):
            v = bessel.j_series(n, x)
            pairs.append((max(abs(v) - 1.0, 0.0), 0.0))  # |J_n| <= 1
            pairs.append((bessel.j_series(n, -x), (-1.0) ** n * v))
    return _numeric_result("bessel_bounded_and_parity", {"n_max": n_max}, pairs, _f(tol))


@_register
def check_bessel_derivative_vs_finite_difference(cfg):
    h1 = 1e-6
    fd1 = (bessel.j_series(0, 1.0 + h1) - bessel.j_series(0, 1.0 - h1)) / (2 * h1)
    d1 = bessel.j_derivative_m(0, 1, 1.0)
    h2 = 1e-4
    fd2 = (
        bessel.j_series(3, 2.0 + h2) - 2 * bessel.j_series(3, 2.0) + bessel.j_series(3, 2.0 - h2)
    ) / (h2 * h2)
    d2 = bessel.j_derivative_m(3, 2, 2.0)
    # the second difference is good to ~1e-6, not 1e-8: compare it at 1/100 scale
    pairs = [(d1, fd1), (d2 / 100.0, fd2 / 100.0)]
    return _numeric_result(
        "bessel_derivative_vs_finite_difference", {"steps": [h1, h2]}, pairs, 1e-8
    )


@_register
def check_bessel_addition(cfg, n=None, x=None, y=None, K=40, tol=1e-12):
    if n is not None and x is not None and y is not None:
        cases = [(_i(n), _f(x), _f(y))]
    else:
        cases = [(0, 1.1, 0.7), (1, 2.0, 0.5), (3, 2.0, 2.0)]
    pairs = []
    for nv, xv, yv in cases:
        lhs = bessel.j_addition(nv, xv, yv, _i(K))
        rhs = bessel.j_series(nv, xv + yv)
        pairs.append((lhs, rhs))
    return _numeric_result("bessel_addition", {"cases": cases, "K": K}, pairs, _f(tol))


@_register
def check_bessel_jacobi_anger(cfg, x=2.0, n_cut=40, tol=1e-12):
    xv = _f(x)
    pairs = []
    for y in (0.0, math.pi / 3.0, 1.2):
        cos_sum, sin_sum = bessel.jacobi_anger_partial(xv, y, _i(n_cut))
        pairs.append((cos_sum, cmath.exp(1j * xv * math.cos(y))))
        pairs.append((sin_sum, cmath.exp(1j * xv * math.sin(y))))
    return _numeric_result("bessel_jacobi_anger", {"x": x, "n_cut": n_cut}, pairs, _f(tol))


@_register
def check_bessel_translation(cfg, m_cut=30, tol=1e-10):
    pairs = []
    for n, x, y in ((0, 1.0, 0.5), (2, 2.0, -0.3)):
        lhs = bessel.j_translate_partial(n, x, y, _i(m_cut))
        rhs = bessel.j_series(n, x + y)
        pairs.append((lhs, rhs))
    return _numeric_result("bessel_translation", {"m_cut": m_cut}, pairs, _f(tol))


@_register
def check_bessel_ode_residual(cfg, n_max=5, tol=1e-10):
    pairs = []
    for x in (0.5, 1.0, 2.0, 5.0):
        for n in range(_i(n_max) + 1):
            res = bessel.j_ode_residual(n, x) / (1.0 + x * x)
            pairs.append((res, 0.0))
    return _numeric_result("bessel_ode_residual", {"n_max": n_max}, pairs, _f(tol))


# ------------------------------------------------------------ disentangle

@_register
def check_disentangle_closed_form_residual(cfg, samples=100, tol=1e-12):
    pairs = []
    for k in range(_i(samples)):
        t = 0.2 * k / (_i(samples) - 1)
        w = 4.0 * t + 1.0
        form = disentangle.disentangle_closed(t)
        f, g = form.f, form.g
        pairs.append((4.0 / (w * w), 4.0 - 8.0 * f + 4.0 * f * f))
        pairs.append((-2j / w, -2j + 2j * f))
        pairs.append((-1.0 / (w * w) + 0j, -cmath.exp(-4j * g)))
    return _numeric_result(
        "disentangle_closed_form_residual", {"samples": samples}, pairs, _f(tol)
    )


@_register
def check_disentangle_rk4_vs_closed(cfg, t_end=0.2, tol=1e-10):
    steps = 10_000
    pairs = []
    traj = disentangle.disentangle_ode_trajectory(
        disentangle.EVEN_HERMITE_EXPONENT, _f(t_end), steps
    )
    for t, f, g, h in traj:
        form = disentangle.disentangle_closed(t)
        pairs.append((f, form.f))
        pairs.append((g, form.g))
        pairs.append((h, form.h))
    return _numeric_result(
        "disentangle_rk4_vs_closed",
        {"t_end": t_end, "steps": steps},
        pairs,
        _f(tol),
    )


@_register
def check_disentangle_system_specialization(cfg):
    got = disentangle.system_coefficients(disentangle.EVEN_HERMITE_EXPONENT)
    want = ((4 + 0j, -8 + 0j, 4 + 0j), (-2j, 2j), -1 + 0j)
    bad = 0 if got == want else 1
    return _exact_result("disentangle_system_specialization", {}, bad)


@_register
def check_disentangle_operator_equivalence(cfg, order=30, tol=1e-8):
    probes = [UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)]
    pairs = []
    for t in (0.02, 0.05):
        form = disentangle.disentangle_closed(t)
        for q in probes:
            factored = disentangle.apply_factored(form, q)
            taylor = disentangle.exp_taylor_apply(
                disentangle.EVEN_HERMITE_EXPONENT, t, q, _i(order)
            )
            for x in (0.0, 0.5, 1.0):
                pairs.append((factored.value_at(x), taylor.evaluate(x)))
    return _numeric_result(
        "disentangle_operator_equivalence", {"order": order}, pairs, _f(tol)
    )


@_register
def check_disentangle_initial_condition(cfg):
    cases = [
        disentangle.EVEN_HERMITE_EXPONENT,
        disentangle.QuadExponent(0, 0, 1),
        disentangle.QuadExponent(1, 1j, 0.5),
    ]
    bad = 0
    for q in cases:
        form = disentangle.disentangle_ode(q, 0.0)
        if form.f != 0 or form.g != 0 or form.h != 0:
            bad += 1
    closed0 = disentangle.disentangle_closed(0.0)
    if closed0.f != 0 or closed0.g != 0 or closed0.h != 0:
        bad += 1
    return _exact_result("disentangle_initial_condition", {}, bad)


# ------------------------------------------------------------- the runner

def check_names() -> tuple:
    return tuple(REGISTRY)


def run_check(name: str, params: dict | None = None, config: SuiteConfig | None = None) -> IdentityCheck:
    """Run one registered check with optional parameter overrides."""
    if name not in REGISTRY:
        raise UnknownCheckError(f"unknown check {name!r}; known: {', '.join(REGISTRY)}")
    fn = REGISTRY[name]
    params = dict(params or {})
    allowed = set(inspect.signature(fn).parameters) - {"cfg"}
    for key in params:
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r} for check {name!r}")
    return fn(config or SuiteConfig(), **params)


def run_suite(config: SuiteConfig | None = None) -> Report:
    """Run every registered check matching the config filter."""
    cfg = config or SuiteConfig()
    checks = []
    for name, fn in REGISTRY.items():
        if not fnmatch.fnmatchcase(name, cfg.filter):
            continue
        checks.append(fn(cfg))
    counts = {
        "pass": sum(1 for c in checks if c.passed),
        "fail": sum(1 for c in checks if not c.passed),
    }
    return Report(
        suite_name="weylfun-identities",
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        checks=tuple(checks),
        counts=counts,
        config=asdict(cfg),
    )


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _check_obj(c: IdentityCheck) -> dict:
    return {
        "name": c.name,
        "params": c.params,
        "lhs": _complex_obj(c.lhs),
        "rhs": _complex_obj(c.rhs),
        "abs_err": c.abs_err,
        "tolerance": c.tolerance,
        "exact": c.exact,
        "pass": c.passed,
    }


def report_to_obj(report: Report) -> dict:
    return {
        "suite_name": report.suite_name,
        "timestamp": report.timestamp,
        "counts": dict(report.counts),
        "config": report.config,
        "checks": [_check_obj(c) for c in report.checks],
    }


def report_serialize(report: Report) -> str:
    """Stable JSON text: sorted keys, shortest round-trip float form."""
    return json.dumps(report_to_obj(report), sort_keys=True, indent=2) + "\n"


def report_parse(text: str) -> Report:
    obj = json.loads(text)
    checks = tuple(
        IdentityCheck(
            name=c["name"],
            params=dict(c["params"]),
            lhs=complex(c["lhs"]["re"], c["lhs"]["im"]),
            rhs=complex(c["rhs"]["re"], c["rhs"]["im"]),
            abs_err=c["abs_err"],
            tolerance=c["tolerance"],
            exact=c["exact"],
            passed=c["pass"],
        )
        for c in obj["checks"]
    )
    return Report(
        suite_name=obj["suite_name"],
        timestamp=obj["timestamp"],
        checks=checks,
        counts=dict(obj["counts"]),
        config=dict(obj["config"]),
    )
