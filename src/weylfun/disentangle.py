"""Factor exp{t(a x^2 + b (xp+px) + c p^2)} into the ordered product
exp(f x^2) exp(g (xp+px)) exp(h p^2).

The factor functions satisfy a triangular ODE system obtained by matching
the t-derivative of the ansatz against the generator:

    df/dt = a - 4i b f - 4 c f^2        (Riccati)
    dg/dt = b - 2i c f
    dh/dt = c exp(-4i g)

with f(0) = g(0) = h(0) = 0.  For the even-Hermite generator
(a, b, c) = (4, -2i, -1) the closed solutions are f = 4t/(4t+1),
g = -(i/2) ln(4t+1), h = -t/(4t+1).  For any exponent, classical RK4 steps
f's Riccati equation, and g and h, which feed nothing back, are taken as
quadratures of f's stage values (Wei and Norman, J. Math. Phys. 4, 1963).
A non-finite time raises DomainError before any step.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import weyl
from .algebra import GaussRational, UniPoly, _Record
from .errors import BlowUpError, DomainError, SingularityError

_FINITE_CAP = 1e100


def _require_finite(z: complex, what: str):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {z!r}")


class QuadExponent(_Record):
    """Coefficients (a_x2, b_mix, c_p2) of x^2, xp+px, p^2 in the exponent."""

    __slots__ = ("a_x2", "b_mix", "c_p2")

    def _validate(self):
        for name in ("a_x2", "b_mix", "c_p2"):
            _require_finite(complex(getattr(self, name)), name)


# Generator whose Taylor series in t reproduces sum t^n/n! H_2n(x):
# -(p^2 - 4x^2 + 2i(xp+px)).
EVEN_HERMITE_EXPONENT = QuadExponent(4.0, -2j, -1.0)


class FactoredForm(_Record):
    """Disentangled triple (f, g, h) at time t."""

    __slots__ = ("f", "g", "h", "t")

    def _validate(self):
        for name in ("f", "g", "h"):
            _require_finite(complex(getattr(self, name)), name)
        if self.t == 0.0 and (self.f != 0 or self.g != 0 or self.h != 0):
            raise ValueError("at t = 0 the factored form must be the identity (0, 0, 0)")


class ExpQuadPoly(_Record):
    """Function e^(quad_coeff * x^2) * poly(x); poly stored by ascending degree."""

    __slots__ = ("quad_coeff", "poly")

    def _validate(self):
        _require_finite(complex(self.quad_coeff), "quad_coeff")
        for c in self.poly:
            _require_finite(complex(c), "poly coefficient")

    def value_at(self, x: complex) -> complex:
        x = complex(x)
        acc = 0j
        for c in reversed(self.poly):
            acc = acc * x + c
        return acc * cmath.exp(self.quad_coeff * x * x)


def system_coefficients(q: QuadExponent) -> tuple:
    """Structure constants of the factor ODEs for a given exponent.

    Returns ((f0, f1, f2), (g0, g1), h0) with
    df/dt = f0 + f1 f + f2 f^2, dg/dt = g0 + g1 f, dh/dt = h0 e^(-4ig).
    """
    a, b, c = complex(q.a_x2), complex(q.b_mix), complex(q.c_p2)
    return ((a, -4j * b, -4 * c), (b, -2j * c), c)


def _closed_fgh(t: float) -> tuple:
    """The closed-form (f, g, h) without the FactoredForm wrapper; needs t > -1/4."""
    w = 4.0 * t + 1.0
    if w <= 0.0:
        raise SingularityError(f"factored form is singular at 4t+1 <= 0 (got 4t+1 = {w})")
    return 4.0 * t / w, -0.5j * math.log(w), -t / w


def disentangle_closed(t: float) -> FactoredForm:
    """Closed-form triple for the even-Hermite exponent; needs a finite t > -1/4."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return FactoredForm(*_closed_fgh(t), t)


def disentangle_ode_trajectory(q: QuadExponent, t_end: float, steps: int):
    """Yield (t_k, f, g, h) along a fixed-step classical RK4 integration.

    Each step is RK4 on f's Riccati equation; with its weights, g's stages are
    g0 + g1 u at f's stage values u and h's are h0 e^(-4i v) at g's stage values v.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end!r}")
    (f0, f1, f2), (g0, g1), h0 = system_coefficients(q)
    f = g = h = 0j
    yield 0.0, f, g, h
    dt = t_end / steps
    half, sixth = 0.5 * dt, dt / 6
    g_dt, g_sixth, h_sixth = g0 * dt, g1 * sixth, h0 * sixth
    # g's stage values are g + half*(g0 + g1 u) and g + dt*(g0 + g1 u); -4i times the increments
    c_half, k_half, c_dt, k_dt = -2j * dt * g0, -2j * dt * g1, -4j * dt * g0, -4j * dt * g1
    exp = cmath.exp
    for k in range(1, steps + 1):
        t_k = k * dt
        a1 = f0 + (f1 + f2 * f) * f
        u2 = f + half * a1
        a2 = f0 + (f1 + f2 * u2) * u2
        u3 = f + half * a2
        a3 = f0 + (f1 + f2 * u3) * u3
        u4 = f + dt * a3
        a4 = f0 + (f1 + f2 * u4) * u4
        w = -4j * g
        try:
            e = exp(w) + exp(w + (c_dt + k_dt * u3)) + 2 * (
                exp(w + (c_half + k_half * f)) + exp(w + (c_half + k_half * u2)))
        except OverflowError:
            raise BlowUpError(t_k) from None
        h += h_sixth * e
        g += g_dt + g_sixth * (f + u4 + 2 * (u2 + u3))  # before f: it reads the old f
        f += sixth * (a1 + a4 + 2 * (a2 + a3))
        # abs() of a value with an inf or nan part is inf or nan, which fails the test
        if not (abs(f) < _FINITE_CAP and abs(g) < _FINITE_CAP and abs(h) < _FINITE_CAP):
            raise BlowUpError(t_k)
        yield t_k, f, g, h


def disentangle_ode(q: QuadExponent, t_end: float, steps: int = 10_000) -> FactoredForm:
    """Integrate the factor ODEs from the identity out to t_end."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if t_end == 0.0:
        return FactoredForm(0j, 0j, 0j, 0.0)
    for _, f, g, h in disentangle_ode_trajectory(q, t_end, steps):
        pass
    return FactoredForm(f, g, h, t_end)


def apply_factored(form: FactoredForm, q: UniPoly) -> ExpQuadPoly:
    """Act with exp(f x^2) exp(g(xp+px)) exp(h p^2) on a polynomial.

    exp(h p^2) is the finite series sum h^m/m! (-1)^m q^(2m); xp+px acts
    diagonally on monomials, x^k -> -i(2k+1) x^k, so its exponential scales
    degree k by e^(-i(2k+1)g); exp(f x^2) stays as the quadratic prefactor.
    """
    smoothed = [0j] * (q.degree + 1 if not q.is_zero() else 1)
    d = q
    weight = 1.0 + 0j  # h^m / m! times the (-1)^m from p^2 = -d^2/dx^2
    m = 0
    while not d.is_zero():
        den = d._den  # floats straight from the numerators: int true division rounds correctly
        for k, (re, im) in d._nums.items():
            smoothed[k] += weight * complex(re / den, im / den)
        d = d.derivative().derivative()
        weight *= -complex(form.h) / (m + 1)
        m += 1
    scaled = tuple(
        ck * cmath.exp(-1j * (2 * k + 1) * form.g) for k, ck in enumerate(smoothed)
    )
    return ExpQuadPoly(complex(form.f), scaled)


def _as_weylop(q: QuadExponent) -> weyl.WeylOp:
    # exact conversion: float parts are binary fractions
    a = GaussRational.from_complex(q.a_x2)
    b = GaussRational.from_complex(q.b_mix)
    c = GaussRational.from_complex(q.c_p2)
    x2 = weyl.WeylOp({(2, 0): a})
    mix = weyl.xp_plus_px * b
    p2 = weyl.WeylOp({(0, 2): c})
    return x2 + mix + p2


def exp_taylor_apply(q_exp: QuadExponent, t: float, q: UniPoly, order: int) -> UniPoly:
    """Truncated Taylor action of the unfactored exponential, exactly.

    Serves as the independent oracle for apply_factored: both evaluate
    exp{t(a x^2 + b(xp+px) + c p^2)} q, one through the factored form, the
    other through sum_{m<=order} t^m/m! Op^m q with exact coefficients.
    """
    op = _as_weylop(q_exp)
    return weyl.apply_exp_taylor(op, GaussRational(Fraction(t)), q, order)


def even_hermite_via_disentangle(t: float, x0: float) -> float:
    """Closed-form disentangling pipeline for sum t^n/n! H_2n(x0)."""
    form = disentangle_closed(t)
    value = apply_factored(form, UniPoly.one()).value_at(x0)
    return value.real
