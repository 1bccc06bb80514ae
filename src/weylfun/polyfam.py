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
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import weyl
from .algebra import GaussRational, UniPoly, _Record, _int_sum, _made, _times
from .errors import DomainError, SingularityError


class PolyFamily(_Record):
    """Polynomials P_0..P_N of one family (Hermite, or Laguerre of one order), index = degree."""

    __slots__ = ("polys",)

    def __getitem__(self, n: int) -> UniPoly:
        return self.polys[n]

    def __len__(self) -> int:
        return len(self.polys)


# ---------------------------------------------------------------- Hermite

def _degree(n: int, name: str = "n") -> None:
    """DomainError naming the degree argument when it is negative."""
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")


def hermite_recurrence(n_max: int) -> PolyFamily:
    """H_{n+1} = 2x H_n - 2n H_{n-1} from H_0 = 1, stepped on integer numerator maps."""
    _degree(n_max, "n_max")
    prev, cur = {}, {0: (1, 0)}
    polys = [_made(UniPoly, cur, 1)]
    for n in range(n_max):
        prev, cur = cur, _int_sum(itertools.chain(
            ((k + 1, 2 * re, 2 * im) for k, (re, im) in cur.items()), _times(prev, -2 * n)
        ))
        polys.append(_made(UniPoly, cur, 1))
    return PolyFamily(tuple(polys))


@lru_cache(maxsize=None)
def _hermite_upto(n_max: int) -> PolyFamily:
    return hermite_recurrence(n_max)


def _rodrigues_steps():
    """Yield H_0, H_1, ... by iterating q -> 2x q - q' from 1, one pass per degree."""
    q = {0: (1, 0)}
    while True:
        yield _made(UniPoly, q, 1)
        q = _int_sum(itertools.chain.from_iterable(
            ((k + 1, 2 * re, 2 * im), (k - 1, -k * re, -k * im)) for k, (re, im) in q.items()
        ))


def hermite_rodrigues(n: int) -> UniPoly:
    """Differential route: iterate q -> 2x q - q' starting from 1.

    Each step performs one factor of the n-th derivative of the Gaussian
    with the e^(x^2) prefactor folded back in, so q_n is H_n.
    """
    _degree(n)
    return next(itertools.islice(_rodrigues_steps(), n, None))


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
    imaginary = [k for k, (_, im) in out._nums.items() if im]
    if imaginary:
        k = min(imaginary)
        raise RuntimeError(
            f"imaginary coefficient {out.coeff(k)} survived at degree {k}; operator algebra is broken"
        )
    return out


def hermite_operator(n: int) -> UniPoly:
    """Operator route: (-i)^n (p + 2ix)^n applied to 1."""
    _degree(n)
    return _hermite_from_ladder(n, next(itertools.islice(_ladder_powers(), n, None)))


def hermite_ode_residual(n: int) -> UniPoly:
    """H_n'' - 2x H_n' + 2n H_n, which must be the zero polynomial."""
    h = hermite_recurrence(n)[n]
    d1 = h.derivative()
    return d1.derivative() - UniPoly.monomial(1, 2) * d1 + h * (2 * n)


def _hermite_sqrt2(n: int, x: Fraction) -> list:
    """Integers R_0..R_n with H_k(sqrt2 x) = sqrt2^(k mod 2) R_k / q^k, for x = p/q.

    H_k has the parity of k, so the sqrt(2) of z = sqrt2 x factors out of
    H_{k+1} = 2z H_k - 2k H_{k-1}: R_{k+1} = (2 if k is even, else 4) p R_k - 2k q^2 R_{k-1}.
    """
    p, q = x.numerator, x.denominator
    rs = [0, 1]  # R_{-1} (never weighted) and R_0
    for k in range(n):
        rs.append((4 if k % 2 else 2) * p * rs[-1] - 2 * k * q * q * rs[-2])
    return rs[1:]


def hermite_addition_check(n: int, x0, y0) -> tuple:
    """Both sides of H_n(x+y) = 2^(-n/2) sum_k C(n,k) H_k(sqrt2 x) H_{n-k}(sqrt2 y).

    With H_k(sqrt2 x) from _hermite_sqrt2, each term carries sqrt2^(k mod 2 + (n-k) mod 2);
    times 2^(-n/2) that is a power of two, so the right side is one integer sum over
    (q_x q_y)^n 2^(n//2).  Both returned values are real Gaussian rationals.
    """
    _degree(n)
    x0, y0 = Fraction(x0), Fraction(y0)
    lhs = _hermite_upto(n)[n].evaluate(GaussRational(x0 + y0))
    hx, hy = _hermite_sqrt2(n, x0), _hermite_sqrt2(n, y0)
    qx, qy = x0.denominator, y0.denominator
    total = 0
    for k in range(n + 1):
        term = math.comb(n, k) * hx[k] * qx ** (n - k) * hy[n - k] * qy ** k
        total += term << (k % 2 + (n - k) % 2) // 2  # sqrt2^2 = 2 when k and n-k are odd
    return lhs, GaussRational(Fraction(total, (qx * qy) ** n << n // 2))


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


def _finite(x0: complex, name: str = "x") -> complex:
    """complex(x0), or DomainError naming the argument when a part is inf or nan."""
    x = complex(x0)
    if not cmath.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x0!r}")
    return x


def hermite_genfun_partial(gen_alpha: complex, x0: complex, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} H_n(x) gen_alpha^n / n! (compare e^(-a^2+2ax))."""
    _degree(n_terms, "n_terms")
    a = _finite(gen_alpha, "gen_alpha")
    acc = 0j
    weight = 1.0 + 0j  # a^n sqrt(2^n n!) / n!
    for n, hn in zip(range(n_terms + 1), _hermite_seq(_finite(x0), 1.0)):
        acc += weight * hn
        weight *= a * math.sqrt(2 / (n + 1))
    return acc


def even_hermite_partial(t: complex, x0: complex, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} t^n/n! H_{2n}(x); meaningful for |t| < 1/4."""
    _degree(n_terms, "n_terms")
    tt = _finite(t, "t")
    acc = 0j
    weight = 1.0 + 0j  # t^n sqrt(4^n (2n)!) / n!
    evens = itertools.islice(_hermite_seq(_finite(x0), 1.0), 0, None, 2)
    for n, h2n in zip(range(n_terms + 1), evens):
        acc += weight * h2n
        weight *= 2 * tt * math.sqrt((2 * n + 1) * (2 * n + 2)) / (n + 1)
    return _finite(acc, f"partial sum at t = {t!r}, x = {x0!r}, n_terms = {n_terms}")


def even_hermite_closed(t: complex, x0: complex) -> complex:
    """Closed form (4t+1)^(-1/2) exp(4t x^2 / (4t+1)) of the even-index sum."""
    tt = _finite(t, "t")
    w = 4 * tt + 1
    if w.imag == 0.0 and w.real <= 0.0:
        raise SingularityError(f"closed form is singular on 4t+1 <= 0 (got 4t+1 = {w.real})")
    x = _finite(x0)
    arg = 4 * tt * x * x / w
    try:
        value = cmath.exp(arg) / cmath.sqrt(w)
    except OverflowError:  # exp(arg) can overflow where the quotient is finite
        try:
            value = cmath.exp(arg - cmath.log(w) / 2)
        except OverflowError:
            value = math.inf
    return _finite(value, f"closed form at t = {t!r}, x = {x0!r}")


# --------------------------------------------------------- psi functions

_LOG_TINY = math.log(sys.float_info.min)  # below it e^(-x^2/2) is not a normal float
_LOG_1E150 = math.log(1e150)


def _psi_seq(x: complex):
    """Yield psi_0(x), psi_1(x), ...: the Hermite sequence from psi_0 = pi^(-1/4) e^(-x^2/2)."""
    log_w = -(x * x).real / 2
    if log_w >= _LOG_TINY:
        return _hermite_seq(x, math.pi ** -0.25 * cmath.exp(-x * x / 2))
    return _psi_seq_scaled(x, log_w)


def _psi_seq_scaled(x: complex, log_w: float):
    """_psi_seq where e^(-x^2/2) is not a normal float, |x| >~ 37.6 (Bunck, BIT 49, 2009).

    The recurrence runs from pi^(-1/4) e^(-i Im(x^2)/2) with the weight e^log_w held
    apart, and folds a 1e-150 rescale into log_w whenever |psi| passes 1e150.
    """
    prev, cur = 0j, math.pi ** -0.25 * cmath.exp(-0.5j * (x * x).imag)
    for n in itertools.count():
        # with |cur| <= 1e150 the exp factor is normal wherever psi_n is
        yield cur * 1e-150 * math.exp(log_w + _LOG_1E150)
        prev, cur = cur, math.sqrt(2 / (n + 1)) * x * cur - math.sqrt(n / (n + 1)) * prev
        if abs(cur) > 1e150:
            prev, cur, log_w = prev * 1e-150, cur * 1e-150, log_w + _LOG_1E150


def _psi_pair(n: int, x: complex) -> tuple:
    """(psi_{n-1}(x), psi_n(x)) with psi_{-1} = 0, holding two values at a time."""
    _degree(n)
    prev = cur = 0j
    for _, psi in zip(range(n + 1), _psi_seq(x)):
        prev, cur = cur, psi
    return prev, cur


def psi_eval(n: int, x0: complex) -> complex:
    """Normalized oscillator function pi^(-1/4) (2^n n!)^(-1/2) e^(-x^2/2) H_n(x)."""
    return _psi_pair(n, _finite(x0))[1]


def psi_derivative(n: int, x0: complex) -> complex:
    """Analytic derivative psi_n' = sqrt(2n) psi_{n-1} - x psi_n, from H_n' = 2n H_{n-1}."""
    x = _finite(x0)
    prev, cur = _psi_pair(n, x)
    return math.sqrt(2 * n) * prev - x * cur


# hermite_expand's interval [-L, L] and trapezoid node count
EXPAND_HALF_WIDTH = 10.0
EXPAND_NODES = 400


def hermite_expand(f: Callable[[float], complex], n_max: int) -> Sequence[complex]:
    """Coefficients c_n = integral f(x) psi_n(x) dx on [-L, L] by the trapezoid rule.

    The integrands decay like a Gaussian, so truncation at L = 10 and an
    even moderate node count are already far below the float noise floor.
    """
    _degree(n_max, "n_max")
    L, nodes = EXPAND_HALF_WIDTH, EXPAND_NODES
    h = 2.0 * L / (nodes - 1)
    coeffs = [0j] * (n_max + 1)
    for i in range(nodes):
        x = -L + i * h
        w = h * (0.5 if i in (0, nodes - 1) else 1.0)
        fx = complex(f(x))
        if fx == 0:
            continue
        for n, psi in zip(range(n_max + 1), _psi_seq(complex(x))):
            coeffs[n] += w * fx * psi
    return coeffs


# --------------------------------------------------------------- Laguerre

def _order(order_alpha) -> Fraction:
    """Fraction(order_alpha), or DomainError naming it when it is inf or nan."""
    try:
        return Fraction(order_alpha)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"order_alpha must be a finite rational, got {order_alpha!r}") from exc


def laguerre_recurrence(n_max: int, order_alpha) -> PolyFamily:
    """(n+1) L_{n+1} = (2n+a+1-x) L_n - (n+a) L_{n-1} from L_0 = 1.

    With a = p/q, L_n is held as integer numerators N_n over q^n n!, so the step is
    N_{n+1} = ((2n+1)q + p) N_n - q x N_n - n q (nq + p) N_{n-1}.
    """
    _degree(n_max, "n_max")
    a = _order(order_alpha)
    p, q = a.numerator, a.denominator
    prev, cur, den = {}, {0: (1, 0)}, 1
    polys = [_made(UniPoly, cur, den)]
    for n in range(n_max):
        prev, cur = cur, _int_sum(itertools.chain(
            _times(cur, (2 * n + 1) * q + p),
            ((k + 1, -q * re, -q * im) for k, (re, im) in cur.items()),
            _times(prev, -n * q * (n * q + p)),
        ))
        den *= q * (n + 1)
        polys.append(_made(UniPoly, cur, den))
    return PolyFamily(tuple(polys))


def laguerre_operator(n: int, order_alpha) -> UniPoly:
    """Operator route: (1/n!) x^(-a) (d/dx - 1)^n x^(n+a), the offset a held apart."""
    _degree(n)
    a = _order(order_alpha)
    p, q = a.numerator, a.denominator
    # c_k x^(a+k) held as numerators over q^j; one factor (d/dx - 1) maps it to
    # ((p + kq) c_k x^(a+k-1) - q c_k x^(a+k)) / q^(j+1).  No key falls below 0.
    s = {n: (1, 0)}
    for _ in range(n):
        s = _int_sum(itertools.chain.from_iterable(
            ((k - 1, (p + k * q) * re, (p + k * q) * im), (k, -q * re, -q * im))
            for k, (re, im) in s.items()
        ))
    return _made(UniPoly, s, q ** n * math.factorial(n))


def laguerre_explicit(n: int, order_alpha) -> UniPoly:
    """Explicit sum sum_k C(n+a, n-k) (-1)^k x^k / k!."""
    _degree(n)
    a = _order(order_alpha)
    p, q = a.numerator, a.denominator
    # Downward from k = n: c_{k-1} = -c_k k (a + k) / (n - k + 1), with c_k held as the
    # integer N_k over q^n n!, N_n = (-q)^n; the division is exact.  Once p + kq hits 0
    # every lower numerator is 0.
    nums = {}
    c = (-q) ** n
    for k in range(n, -1, -1):
        if not c:
            break
        nums[k] = (c, 0)
        c = -c * k * (p + k * q) // (q * (n - k + 1))
    return _made(UniPoly, nums, q ** n * math.factorial(n))


def laguerre_genfun_partial(t: complex, x0: complex, order_alpha, n_terms: int) -> complex:
    """Partial sum sum_{n<=N} L_n^a(x) t^n (compare (1-t)^-(a+1) e^(-xt/(1-t)))."""
    _degree(n_terms, "n_terms")
    tt = _finite(t, "t")
    if abs(tt) >= 1:
        raise DomainError(f"generating function requires |t| < 1, got |t| = {abs(tt)}")
    a = float(_order(order_alpha))
    x = _finite(x0)
    acc = 0j
    tp = 1.0 + 0j
    prev, cur = 0j, 1.0 + 0j  # L_{n-1}^a(x), L_n^a(x) by the laguerre_recurrence step, in floats
    for n in range(n_terms + 1):
        acc += tp * cur
        tp *= tt
        prev, cur = cur, ((2 * n + a + 1 - x) * cur - (n + a) * prev) / (n + 1)
    return acc
