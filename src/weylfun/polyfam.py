"""Hermite and associated Laguerre polynomial generation by independent
routes, the normalized oscillator functions psi_n, basis expansion, and
generating-function partial sums.

The symbol alpha is overloaded in the classical formulas: gen_alpha names
the Hermite generating-function variable, order_alpha the Laguerre order.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import weyl
from .algebra import GaussRational, UniPoly, binom_shifted, ShiftedPoly, shifted_derivative
from .errors import DomainError, SingularityError


@dataclass(frozen=True)
class HermiteSet:
    """Hermite polynomials H_0..H_N, index = degree."""

    polys: tuple

    def __getitem__(self, n: int) -> UniPoly:
        return self.polys[n]

    def __len__(self) -> int:
        return len(self.polys)


@dataclass(frozen=True)
class LaguerreSet:
    """Associated Laguerre polynomials L_0^a..L_N^a for a fixed order a."""

    alpha: Fraction
    polys: tuple

    def __getitem__(self, n: int) -> UniPoly:
        return self.polys[n]

    def __len__(self) -> int:
        return len(self.polys)


# ---------------------------------------------------------------- Hermite

def hermite_recurrence(n_max: int) -> HermiteSet:
    """H_{n+1} = 2x H_n - 2n H_{n-1} from seeds H_0 = 1, H_1 = 2x."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    polys = [UniPoly.one()]
    if n_max >= 1:
        polys.append(UniPoly.monomial(1, 2))
    two_x = UniPoly.monomial(1, 2)
    for n in range(1, n_max):
        polys.append(two_x * polys[n] - polys[n - 1] * (2 * n))
    return HermiteSet(tuple(polys))


@lru_cache(maxsize=None)
def _hermite_upto(n_max: int) -> HermiteSet:
    return hermite_recurrence(n_max)


def hermite_rodrigues(n: int) -> UniPoly:
    """Differential route: iterate q -> 2x q - q' starting from 1.

    Each step performs one factor of the n-th derivative of the Gaussian
    with the e^(x^2) prefactor folded back in, so q_n is H_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = UniPoly.one()
    two_x = UniPoly.monomial(1, 2)
    for _ in range(n):
        q = two_x * q - q.derivative()
    return q


def _ladder_powers():
    """Yield (p + 2ix)^n for n = 0, 1, ..., one normal-ordered product per step."""
    ladder = weyl.WeylOp({(0, 1): 1, (1, 0): GaussRational(0, 2)})  # p + 2ix
    power = weyl.WeylOp.identity()
    while True:
        yield power
        power = power * ladder


def _hermite_from_ladder(n: int, power: weyl.WeylOp) -> UniPoly:
    """(-i)^n power 1, where power is (p + 2ix)^n; an imaginary coefficient is a bug."""
    out = weyl.apply_to_poly(power, UniPoly.one()) * GaussRational(0, -1) ** n
    for k, c in out.terms():
        if not c.is_real():
            raise RuntimeError(
                f"imaginary coefficient {c} survived at degree {k}; operator algebra is broken"
            )
    return out


def hermite_operator(n: int) -> UniPoly:
    """Operator route: (-i)^n (p + 2ix)^n applied to 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _hermite_from_ladder(n, next(itertools.islice(_ladder_powers(), n, None)))


def hermite_ode_residual(n: int) -> UniPoly:
    """H_n'' - 2x H_n' + 2n H_n, which must be the zero polynomial."""
    h = _hermite_upto(n)[n]
    d1 = h.derivative()
    return d1.derivative() - UniPoly.monomial(1, 2) * d1 + h * (2 * n)


class _Root2:
    """Element a + b*sqrt(2) of the quadratic extension over the rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction = Fraction(0), b: Fraction = Fraction(0)):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other: "_Root2") -> "_Root2":
        return _Root2(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "_Root2") -> "_Root2":
        return _Root2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def scaled(self, c: Fraction) -> "_Root2":
        return _Root2(self.a * c, self.b * c)


def _hermite_root2(n: int, z: _Root2) -> list:
    """H_0(z)..H_n(z) in a + b*sqrt(2) by H_{k+1} = 2z H_k - 2k H_{k-1}."""
    two_z = z.scaled(Fraction(2))
    hs = [_Root2(), _Root2(Fraction(1))]  # H_{-1} (never weighted) and H_0
    for k in range(n):
        hs.append(two_z * hs[-1] + hs[-2].scaled(Fraction(-2 * k)))
    return hs[1:]


def hermite_addition_check(n: int, x0, y0) -> tuple:
    """Both sides of H_n(x+y) = 2^(-n/2) sum_k C(n,k) H_k(sqrt2 x) H_{n-k}(sqrt2 y).

    The sqrt(2) side runs the Hermite recurrence exactly in the extension
    field a + b*sqrt(2); the residual sqrt(2) always cancels, so both
    returned values are real Gaussian rationals.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x0 = Fraction(x0)
    y0 = Fraction(y0)
    lhs = _hermite_upto(n)[n].evaluate(GaussRational(x0 + y0))
    hx = _hermite_root2(n, _Root2(Fraction(0), x0))
    hy = _hermite_root2(n, _Root2(Fraction(0), y0))

    total = _Root2()
    for k in range(n + 1):
        total = total + (hx[k] * hy[n - k]).scaled(Fraction(math.comb(n, k)))
    if n % 2 == 0:
        pref = _Root2(Fraction(1, 2 ** (n // 2)), Fraction(0))
    else:
        pref = _Root2(Fraction(0), Fraction(1, 2 ** ((n + 1) // 2)))
    rhs = pref * total
    if rhs.b:
        raise RuntimeError(f"sqrt(2) failed to cancel in the addition formula at n={n}")
    return lhs, GaussRational(rhs.a)


def _hermite_seq(x: complex, h0: complex):
    """Yield h0 H_n(x) / sqrt(2^n n!) for n = 0, 1, ... by the normalized recurrence.

    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1} is the raising relation
    a+ psi_n = sqrt(n+1) psi_{n+1}; h0 = pi^(-1/4) e^(-x^2/2) gives psi_n(x).  H_n
    itself overflows floats near n = 280; for real x these stay below 1.09 e^(x^2/2) |h0|.
    """
    prev, cur = 0j, h0
    for n in itertools.count():
        yield cur
        prev, cur = cur, math.sqrt(2 / (n + 1)) * x * cur - math.sqrt(n / (n + 1)) * prev


def hermite_genfun_partial(gen_alpha: complex, x0: complex, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} H_n(x) gen_alpha^n / n! (compare e^(-a^2+2ax))."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    a = complex(gen_alpha)
    acc = 0j
    weight = 1.0 + 0j  # a^n sqrt(2^n n!) / n!
    for n, hn in zip(range(n_terms + 1), _hermite_seq(complex(x0), 1.0)):
        acc += weight * hn
        weight *= a * math.sqrt(2 / (n + 1))
    return acc


def even_hermite_partial(t: complex, x0: complex, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} t^n/n! H_{2n}(x); meaningful for |t| < 1/4."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    tt = complex(t)
    acc = 0j
    weight = 1.0 + 0j  # t^n sqrt(4^n (2n)!) / n!
    evens = itertools.islice(_hermite_seq(complex(x0), 1.0), 0, None, 2)
    for n, h2n in zip(range(n_terms + 1), evens):
        acc += weight * h2n
        weight *= 2 * tt * math.sqrt((2 * n + 1) * (2 * n + 2)) / (n + 1)
    return acc


def even_hermite_closed(t: complex, x0: complex) -> complex:
    """Closed form (4t+1)^(-1/2) exp(4t x^2 / (4t+1)) of the even-index sum."""
    w = 4 * complex(t) + 1
    if w.imag == 0.0 and w.real <= 0.0:
        raise SingularityError(f"closed form is singular on 4t+1 <= 0 (got 4t+1 = {w.real})")
    x = complex(x0)
    return cmath.exp(4 * complex(t) * x * x / w) / cmath.sqrt(w)


# --------------------------------------------------------- psi functions

def _psi_seq(x: complex):
    """Yield psi_0(x), psi_1(x), ...: the Hermite sequence from psi_0 = pi^(-1/4) e^(-x^2/2)."""
    return _hermite_seq(x, math.pi ** -0.25 * cmath.exp(-x * x / 2))


def _psi_pair(n: int, x: complex) -> tuple:
    """(psi_{n-1}(x), psi_n(x)) with psi_{-1} = 0, holding two values at a time."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = cur = 0j
    for _, psi in zip(range(n + 1), _psi_seq(x)):
        prev, cur = cur, psi
    return prev, cur


def psi_eval(n: int, x0: complex) -> complex:
    """Normalized oscillator function pi^(-1/4) (2^n n!)^(-1/2) e^(-x^2/2) H_n(x)."""
    return _psi_pair(n, complex(x0))[1]


def psi_derivative(n: int, x0: complex) -> complex:
    """Analytic derivative psi_n' = sqrt(2n) psi_{n-1} - x psi_n, from H_n' = 2n H_{n-1}."""
    x = complex(x0)
    prev, cur = _psi_pair(n, x)
    return math.sqrt(2 * n) * prev - x * cur


def hermite_expand(
    f: Callable[[float], complex], n_max: int, half_width: float = 10.0, nodes: int = 400
) -> Sequence[complex]:
    """Coefficients c_n = integral f(x) psi_n(x) dx on [-L, L] by the trapezoid rule.

    The integrands decay like a Gaussian, so truncation at L = 10 and an
    even moderate node count are already far below the float noise floor.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if nodes < 2:
        raise ValueError("at least 2 quadrature nodes are required")
    h = 2.0 * half_width / (nodes - 1)
    coeffs = [0j] * (n_max + 1)
    for i in range(nodes):
        x = -half_width + i * h
        w = h * (0.5 if i in (0, nodes - 1) else 1.0)
        fx = complex(f(x))
        if fx == 0:
            continue
        for n, psi in zip(range(n_max + 1), _psi_seq(complex(x))):
            coeffs[n] += w * fx * psi
    return coeffs


# --------------------------------------------------------------- Laguerre

def laguerre_recurrence(n_max: int, order_alpha) -> LaguerreSet:
    """(n+1) L_{n+1} = (2n+a+1-x) L_n - (n+a) L_{n-1}, seeds 1 and 1+a-x."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = Fraction(order_alpha)
    polys = [UniPoly.one()]
    if n_max >= 1:
        polys.append(UniPoly({0: 1 + a, 1: -1}))
    for n in range(1, n_max):
        lin = UniPoly({0: 2 * n + a + 1, 1: -1})
        nxt = (lin * polys[n] - polys[n - 1] * (n + a)) * Fraction(1, n + 1)
        polys.append(nxt)
    return LaguerreSet(a, tuple(polys))


def laguerre_operator(n: int, order_alpha) -> UniPoly:
    """Operator route: (1/n!) x^(-a) (d/dx - 1)^n x^(n+a) with an exact offset."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(order_alpha)
    s = ShiftedPoly(a, {n: 1})
    for _ in range(n):
        s = shifted_derivative(s) - s
    return s.without_offset() * Fraction(1, math.factorial(n))


def laguerre_explicit(n: int, order_alpha) -> UniPoly:
    """Explicit sum sum_k C(n+a, n-k) (-1)^k x^k / k!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(order_alpha)
    coeffs = {}
    for k in range(n + 1):
        c = binom_shifted(a, n, k) * Fraction((-1) ** k, math.factorial(k))
        coeffs[k] = c
    return UniPoly(coeffs)


def laguerre_genfun_partial(t: complex, x0: complex, order_alpha, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} L_n^a(x) t^n (compare (1-t)^-(a+1) e^(-xt/(1-t)))."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    tt = complex(t)
    if abs(tt) >= 1:
        raise DomainError(f"generating function requires |t| < 1, got |t| = {abs(tt)}")
    a = float(Fraction(order_alpha))
    x = complex(x0)
    acc = 0j
    tp = 1.0 + 0j
    prev, cur = 0j, 1.0 + 0j  # L_{n-1}^a(x), L_n^a(x) by the laguerre_recurrence step, in floats
    for n in range(n_terms + 1):
        acc += tp * cur
        tp *= tt
        prev, cur = cur, ((2 * n + a + 1 - x) * cur - (n + a) * prev) / (n + 1)
    return acc
