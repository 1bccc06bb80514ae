"""Normal-ordered arithmetic in the algebra generated by x and p with [x,p] = i.

An element is a finite sum c_{jk} x^j p^k.  The canonical form keeps every
x to the left of every p, obtained by iterating p^k x = x p^k - i k p^(k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from .algebra import GR_ZERO, GaussRational, ScalarLike, UniPoly, as_gauss
from .algebra import _scaled, _terms_add, _terms_from, _terms_neg, _terms_sum, _wrap
from .errors import NonConvergenceError, NotCentralError

# (-i)**m cycles with period 4
_NEG_I_POW = (
    GaussRational(1),
    GaussRational(0, -1),
    GaussRational(-1),
    GaussRational(0, 1),
)


def _check_exponents(key) -> None:
    j, k = key
    if j < 0 or k < 0:
        raise ValueError(f"exponents must be nonnegative, got {key}")


class WeylOp:
    """Normal-ordered Weyl-algebra element, (j, k) -> coefficient of x^j p^k."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping = ()):
        self._terms = _terms_from(terms, _check_exponents)

    @classmethod
    def x(cls) -> "WeylOp":
        return cls({(1, 0): 1})

    @classmethod
    def p(cls) -> "WeylOp":
        return cls({(0, 1): 1})

    @classmethod
    def identity(cls) -> "WeylOp":
        return cls({(0, 0): 1})

    @classmethod
    def scalar(cls, c: ScalarLike) -> "WeylOp":
        return cls({(0, 0): c})

    def terms(self):
        """Sorted ((j, k), coefficient) pairs."""
        return tuple(sorted(self._terms.items(), key=lambda t: t[0]))

    def coeff(self, j: int, k: int) -> GaussRational:
        return self._terms.get((j, k), GR_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def scalar_part(self) -> GaussRational:
        return self._terms.get((0, 0), GR_ZERO)

    def __add__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _wrap(WeylOp, _terms_add(self._terms, other._terms))

    def __sub__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _wrap(WeylOp, _terms_add(self._terms, _terms_neg(other._terms)))

    def __neg__(self):
        return _wrap(WeylOp, _terms_neg(self._terms))

    def __mul__(self, other):
        if isinstance(other, WeylOp):
            return _product(self, other)
        return _scaled(WeylOp, self._terms, other)

    def __rmul__(self, other):
        return _scaled(WeylOp, self._terms, other)

    def __pow__(self, n: int) -> "WeylOp":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator power requires an integer n >= 0")
        out = WeylOp.identity()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (j, k), c in self.terms():
            factors = []
            if j:
                factors.append("x" if j == 1 else f"x^{j}")
            if k:
                factors.append("p" if k == 1 else f"p^{k}")
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"WeylOp<{self}>"


def _product(a: WeylOp, b: WeylOp) -> WeylOp:
    # x^j1 p^k1 * x^j2 p^k2: commute the p^k1 block through x^j2 one x at a
    # time via p^k x = x p^k - i k p^(k-1); the iterated rule collapses to
    # sum_m (-i)^m m! C(k1,m) C(j2,m) x^(j1+j2-m) p^(k1+k2-m).
    def terms():
        for (j1, k1), c1 in a._terms.items():
            for (j2, k2), c2 in b._terms.items():
                c = c1 * c2
                for m in range(min(k1, j2) + 1):
                    w = math.comb(k1, m) * math.comb(j2, m) * math.factorial(m)
                    yield (j1 + j2 - m, k1 + k2 - m), c * (_NEG_I_POW[m % 4] * w)

    return _wrap(WeylOp, _terms_sum(terms()))


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] = ab - ba, exactly."""
    return a * b - b * a


xp_plus_px = WeylOp({(1, 1): 2, (0, 0): GaussRational(0, -1)})  # xp + px = 2xp - i


@dataclass(frozen=True)
class Terminated:
    """Conjugation whose nested-commutator series is a finite exact sum."""

    result: WeylOp


@dataclass(frozen=True)
class Eigen:
    """Conjugation with [A, B] = eigenvalue * B, i.e. e^(xi*A) B e^(-xi*A) = e^(xi*eigenvalue) B."""

    eigenvalue: GaussRational
    op: WeylOp


ConjugationResult = Union[Terminated, Eigen]


def _scalar_ratio(c: WeylOp, b: WeylOp):
    """If c == lam * b for a scalar lam, return lam, else None."""
    if set(c._terms) != set(b._terms):
        return None
    lam = None
    for key, cv in c._terms.items():
        ratio = cv / b._terms[key]
        if lam is None:
            lam = ratio
        elif ratio != lam:
            return None
    return lam


def hadamard_conjugate(
    a: WeylOp, b: WeylOp, xi: ScalarLike, max_depth: int = 64
) -> ConjugationResult:
    """Evaluate e^(xi*a) b e^(-xi*a) through the nested-commutator expansion.

    Returns Terminated with the exact finite sum
    b + xi[a,b] + xi^2/2! [a,[a,b]] + ... when some nested commutator
    vanishes, or Eigen when [a,b] is a scalar multiple of b.  Raises
    NonConvergenceError if neither happens within max_depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    xi = as_gauss(xi)
    if xi is NotImplemented:
        raise TypeError("xi must be an exact scalar")
    total = b
    nested = b
    weight = GaussRational(1)  # xi^depth / depth!
    for depth in range(1, max_depth + 1):
        nested = commutator(a, nested)
        if nested.is_zero():
            return Terminated(total)
        if depth == 1:
            lam = _scalar_ratio(nested, b)
            if lam is not None:
                return Eigen(lam, b)
        weight = weight * xi / depth
        total = total + nested * weight
    raise NonConvergenceError(max_depth)


def central_bch_prefactor(a: WeylOp, b: WeylOp) -> GaussRational:
    """Scalar c with e^(a+b) = e^(-c/2) e^a e^b, valid when [a,b] is central.

    Checks that [a,b] is a pure scalar and that it commutes with both a
    and b; raises NotCentralError otherwise.
    """
    comm = commutator(a, b)
    if not comm.is_scalar():
        raise NotCentralError(f"[A,B] = {comm} is not a central scalar")
    if not commutator(comm, a).is_zero() or not commutator(comm, b).is_zero():
        raise NotCentralError("[[A,B],A] and [[A,B],B] must both vanish")
    return comm.scalar_part()


def apply_to_poly(w: WeylOp, q: UniPoly) -> UniPoly:
    """Act on a polynomial: the term x^j p^k maps q to x^j (-i)^k q^(k)."""
    derivs = [q]
    out = UniPoly.zero()
    for (j, k), c in w.terms():
        while len(derivs) <= k:
            derivs.append(derivs[-1].derivative())
        dq = derivs[k]
        if dq.is_zero():
            continue
        out = out + dq.shift(j) * (c * _NEG_I_POW[k % 4])
    return out


def apply_exp_taylor(w: WeylOp, xi: ScalarLike, q: UniPoly, order: int) -> UniPoly:
    """Exact truncated Taylor action: sum_{m<=order} xi^m/m! w^m q."""
    if order < 0:
        raise ValueError("order must be >= 0")
    xi = as_gauss(xi)
    if xi is NotImplemented:
        raise TypeError("xi must be an exact scalar")
    acc = q
    powq = q
    weight = GaussRational(1)
    for m in range(1, order + 1):
        powq = apply_to_poly(w, powq)
        if powq.is_zero():
            break
        weight = weight * xi / m
        acc = acc + powq * weight
    return acc

