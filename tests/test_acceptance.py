"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line per criterion."""

import cmath
import math
from fractions import Fraction

from weylfun import bessel, disentangle, harness, polyfam
from weylfun.algebra import GaussRational, UniPoly
from weylfun.cli import main
from weylfun.errors import NotCentralError
from weylfun.weyl import (
    Eigen,
    Terminated,
    WeylOp,
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


def report(num: int, label: str, ok: bool):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_c01_hermite_triple_equality():
    hs = polyfam.hermite_recurrence(25)
    ok = all(
        hs[n] == polyfam.hermite_rodrigues(n) == polyfam.hermite_operator(n)
        for n in range(26)
    )
    report(1, "hermite recurrence = rodrigues = operator, n <= 25, exact", ok)


def test_c02_laguerre_triple_equality():
    ok = True
    for alpha in (0, 1, 5, Fraction(1, 2), Fraction(3, 2)):
        ls = polyfam.laguerre_recurrence(20, alpha)
        for n in range(21):
            ok &= ls[n] == polyfam.laguerre_operator(n, alpha) == polyfam.laguerre_explicit(n, alpha)
    report(2, "laguerre recurrence = operator = explicit, n <= 20, exact", ok)


def test_c03_hermite_ode_and_derivative():
    hs = polyfam.hermite_recurrence(25)
    ok = all(polyfam.hermite_ode_residual(n).is_zero() for n in range(26))
    ok &= all(hs[n].derivative() == hs[n - 1] * (2 * n) for n in range(1, 26))
    report(3, "hermite ODE residual and derivative relation, n <= 25, exact", ok)


def test_c04_commutator_table():
    ok = commutator(X, P) == WeylOp.scalar(I)
    ok &= commutator(X2, P) == WeylOp({(1, 0): 2 * I})
    ok &= commutator(X2, xp_plus_px) == WeylOp({(2, 0): 4 * I})
    ok &= commutator(xp_plus_px, P2) == WeylOp({(0, 2): 4 * I})
    ok &= commutator(X2, P2) == WeylOp({(0, 0): 2, (1, 1): 4 * I})
    report(4, "commutator table reproduced exactly", ok)


def test_c05_hadamard_cases():
    ok = hadamard_conjugate(X2, P, GaussRational(1)) == Terminated(
        WeylOp({(0, 1): 1, (1, 0): 2 * I})
    )
    ok &= hadamard_conjugate(X, P, GaussRational(1)) == Terminated(
        WeylOp({(0, 1): 1, (0, 0): I})
    )
    for f in (Fraction(1), Fraction(1, 3)):
        g = GaussRational(f)
        ok &= hadamard_conjugate(X2, xp_plus_px, g) == Terminated(
            xp_plus_px + WeylOp({(2, 0): 4 * I * g})
        )
        ok &= hadamard_conjugate(X2, P2, g) == Terminated(
            P2 + xp_plus_px * (2 * I * g) + WeylOp({(2, 0): -4 * g * g})
        )
    eig = hadamard_conjugate(xp_plus_px, P2, GaussRational(1))
    ok &= isinstance(eig, Eigen) and eig.eigenvalue == 4 * I and eig.op == P2
    report(5, "hadamard conjugation cases reproduced exactly", ok)


def test_c06_bch_central_case():
    c = central_bch_prefactor(X * 2, P * GaussRational(0, -1))
    ok = c == GaussRational(2)  # exponent -c/2 = -1 exactly
    ok &= central_bch_prefactor(X, X) == GaussRational(0)
    try:
        central_bch_prefactor(X2, P)
        ok = False
    except NotCentralError:
        pass
    report(6, "central Baker-Hausdorff prefactor exponent -1 exactly", ok)


def test_c07_even_hermite_sum():
    ok = True
    for t in (0.05, 0.1, 0.2):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            partial = polyfam.even_hermite_partial(t, x, 80)
            closed = polyfam.even_hermite_closed(t, x)
            ok &= abs(partial - closed) <= 1e-9 * (1 + abs(closed))
    report(7, "even-hermite sum partial(N=80) vs closed, tol 1e-9 relative", ok)


def test_c08_generating_functions():
    ok = True
    for i in range(9):
        x = -2.0 + 0.5 * i
        got = polyfam.hermite_genfun_partial(0.5, x, 40)
        ok &= abs(got - cmath.exp(-0.25 + x)) <= 1e-12
    for alpha in (0, 2):
        for x in (0.0, 1.0, 3.0):
            got = polyfam.laguerre_genfun_partial(0.3, x, alpha, 60)
            want = 0.7 ** (-(alpha + 1)) * math.exp(-x * 0.3 / 0.7)
            ok &= abs(got - want) <= 1e-10
    for t in (0.7, 1.3, -0.5):
        got = bessel.j_genfun_partial(t, 1.0, 40)
        ok &= abs(got - math.exp((t - 1 / t) / 2)) <= 1e-12
    report(8, "hermite/laguerre/bessel generating functions", ok)


def test_c09_bessel_cross_method():
    ok = True
    for x in (0.5, 1.0, 5.0, 10.0):
        miller = bessel.j_miller(10, x)
        for n in range(11):
            s = bessel.j_series(n, x)
            bound = 1e-12 * (1 + abs(s))
            ok &= abs(s - bessel.j_integral_auto(n, x)) <= bound
            ok &= abs(s - miller[n]) <= bound
    report(9, "bessel series vs integral vs miller, tol 1e-12 relative", ok)


def test_c10_bessel_addition():
    ok = True
    for n, x, y in ((0, 1.1, 0.7), (1, 2.0, 0.5), (3, 2.0, 2.0)):
        got = bessel.j_addition(n, x, y, 40)
        ok &= abs(got - bessel.j_series(n, x + y)) <= 1e-12
    report(10, "bessel addition formula, K=40, tol 1e-12", ok)


def test_c11_jacobi_anger():
    ok = True
    for y in (0.0, math.pi / 3, 1.2):
        cos_sum, sin_sum = bessel.jacobi_anger_partial(2.0, y, 40)
        ok &= abs(cos_sum - cmath.exp(2j * math.cos(y))) <= 1e-12
        ok &= abs(sin_sum - cmath.exp(2j * math.sin(y))) <= 1e-12
    report(11, "jacobi-anger expansions, N=40, tol 1e-12", ok)


def test_c12_translation_identity():
    ok = True
    for n, x, y in ((0, 1.0, 0.5), (2, 2.0, -0.3)):
        got = bessel.j_translate_partial(n, x, y, 30)
        ok &= abs(got - bessel.j_series(n, x + y)) <= 1e-10
    report(12, "bessel translation identity, M=30, tol 1e-10", ok)


def test_c13_bessel_ode_residual():
    ok = True
    for n in range(6):
        for x in (0.5, 1.0, 2.0, 5.0):
            ok &= abs(bessel.j_ode_residual(n, x)) <= 1e-10 * (1 + x * x)
    report(13, "bessel ODE residual, tol 1e-10*(1+x^2)", ok)


def test_c14_disentangling():
    worst = 0.0
    for t, f, g, h in disentangle.disentangle_ode_trajectory(
        disentangle.EVEN_HERMITE_EXPONENT, 0.2, 10_000
    ):
        closed = disentangle.disentangle_closed(t)
        worst = max(worst, abs(f - closed.f), abs(g - closed.g), abs(h - closed.h))
    ok = worst <= 1e-10
    ok &= disentangle.system_coefficients(disentangle.EVEN_HERMITE_EXPONENT) == (
        (4 + 0j, -8 + 0j, 4 + 0j),
        (-2j, 2j),
        -1 + 0j,
    )
    for t in (0.02, 0.05):
        form = disentangle.disentangle_closed(t)
        for q in (UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)):
            factored = disentangle.apply_factored(form, q)
            taylor = disentangle.exp_taylor_apply(disentangle.EVEN_HERMITE_EXPONENT, t, q, 30)
            for x in (0.0, 0.5, 1.0):
                ok &= abs(factored.value_at(x) - taylor.evaluate(x)) <= 1e-8
    report(14, "disentangling: RK4 vs closed, specialization, operator equivalence", ok)


def test_c15_basis_expansion_and_ladder():
    coeffs = polyfam.hermite_expand(lambda x: polyfam.psi_eval(3, x), 8)
    ok = abs(coeffs[3] - 1.0) <= 1e-8
    ok &= all(abs(coeffs[n]) <= 1e-8 for n in range(9) if n != 3)
    inv = 1.0 / math.sqrt(2.0)
    for x in (-1.0, 0.0, 0.7, 2.0):
        for n in range(11):
            pn, dn = polyfam.psi_eval(n, x), polyfam.psi_derivative(n, x)
            ok &= abs((x * pn - dn) * inv - math.sqrt(n + 1) * polyfam.psi_eval(n + 1, x)) <= 1e-10
            down = math.sqrt(n) * polyfam.psi_eval(n - 1, x) if n else 0.0
            ok &= abs((x * pn + dn) * inv - down) <= 1e-10
    report(15, "basis expansion orthonormality and ladder relations", ok)


def test_c16_harness_and_cli(capsys):
    first = harness.run_suite()
    second = harness.run_suite()
    ok = len(first["checks"]) >= 25
    ok &= first["counts"]["fail"] == 0
    ta = harness.report_serialize(first).replace(first["timestamp"], "T")
    tb = harness.report_serialize(second).replace(second["timestamp"], "T")
    ok &= ta == tb
    exit_code = main(["verify", "--output", "json"])
    capsys.readouterr()
    ok &= exit_code == 0
    report(16, "verify runs >= 25 checks, exit 0, deterministic reports", ok)
