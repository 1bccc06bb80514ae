"""Normal-ordered arithmetic in the algebra generated by x and p with [x,p] = i.

An element is a finite sum c_{jk} x^j p^k.  The canonical form keeps every
x to the left of every p, obtained by iterating p^k x = x p^k - i k p^(k-1).
WeylOp stores the term-map layout of weylfun.algebra, Gaussian-integer
numerators over one denominator, so its kernels run on ints with one gcd per
result.  The product adds each term in place and takes the m >= 1 commutation
terms only where k1*j2 > 0; the Taylor action weights w^m q by xi^m/m! once.
"""

from __future__ import annotations

from math import factorial, perm
from typing import Mapping, Union

from .algebra import GaussRational, ScalarLike, UniPoly, _Record, as_gauss
from .algebra import _add, _coeff, _eq, _from_items, _int_sum, _ints, _made, _neg, _scale, _sub
from .algebra import _terms
from .errors import DomainError, NonConvergenceError, NotCentralError


def _act(w: dict, q: dict) -> dict:
    """The action of w on q, both as numerators: x^j p^k maps q to x^j (-i)^k q^(k)."""

    def triples():
        for (j, k), (wr, wi) in w.items():
            cr, ci = ((wr, wi), (wi, -wr), (-wr, -wi), (-wi, wr))[k % 4]  # times (-i)^k
            for d, (qr, qi) in q.items():
                if d >= k:
                    f = perm(d, k)
                    yield d - k + j, f * (cr * qr - ci * qi), f * (cr * qi + ci * qr)

    return _int_sum(triples())


def _check_exponents(key) -> None:
    j, k = key
    if j < 0 or k < 0:
        raise ValueError(f"exponents must be nonnegative, got {key}")


class WeylOp:
    """Normal-ordered Weyl-algebra element, (j, k) -> coefficient of x^j p^k."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping = ()):
        self._nums, self._den = _from_items(terms, _check_exponents)

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

    terms = _terms

    def coeff(self, j: int, k: int) -> GaussRational:
        return _coeff(self, (j, k))

    def is_zero(self) -> bool:
        return not self._nums

    def is_scalar(self) -> bool:
        return all(key == (0, 0) for key in self._nums)

    def scalar_part(self) -> GaussRational:
        return _coeff(self, (0, 0))

    __add__, __sub__, __neg__, __eq__, __rmul__ = _add, _sub, _neg, _eq, _scale

    def __mul__(self, other):
        if isinstance(other, WeylOp):
            return _product(self, other)
        return _scale(self, other)

    def __pow__(self, n: int) -> "WeylOp":
        if not isinstance(n, int) or n < 0:
            raise DomainError("operator power requires an integer n >= 0")
        out = WeylOp.identity()
        for _ in range(n):
            out = out * self
        return out

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        if not self._nums:
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
    # sum_m (-i)^m m! C(k1,m) C(j2,m) x^(j1+j2-m) p^(k1+k2-m); the m >= 1 terms
    # exist only where k1 j2 > 0.
    out = {}
    get = out.get
    b_items = b._nums.items()
    for (j1, k1), (ar, ai) in a._nums.items():
        for (j2, k2), (br, bi) in b_items:
            re, im = ar * br - ai * bi, ar * bi + ai * br
            key = (j1 + j2, k1 + k2)
            s = get(key)
            out[key] = (re, im) if s is None else (s[0] + re, s[1] + im)
            if k1 and j2:
                w = 1  # m! C(k1,m) C(j2,m), stepped in ints
                for m in range(1, min(k1, j2) + 1):
                    re, im = im, -re  # times -i: term m carries (-i)^m
                    w = w * (k1 - m + 1) * (j2 - m + 1) // m
                    key = (j1 + j2 - m, k1 + k2 - m)
                    s = get(key)
                    out[key] = (w * re, w * im) if s is None else (s[0] + w * re, s[1] + w * im)
    return _made(WeylOp, {k: v for k, v in out.items() if v[0] or v[1]}, a._den * b._den)


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] = ab - ba, exactly."""
    return a * b - b * a


xp_plus_px = WeylOp({(1, 1): 2, (0, 0): GaussRational(0, -1)})  # xp + px = 2xp - i


class Terminated(_Record):
    """Conjugation whose nested-commutator series is a finite exact sum (a WeylOp result)."""

    __slots__ = ("result",)


class Eigen(_Record):
    """Conjugation with [A, B] = eigenvalue * B, i.e. e^(xi*A) B e^(-xi*A) = e^(xi*eigenvalue) B."""

    __slots__ = ("eigenvalue", "op")


ConjugationResult = Union[Terminated, Eigen]


def _scalar_ratio(c: WeylOp, b: WeylOp):
    """If c == lam * b for a scalar lam, return lam, else None."""
    if c._nums.keys() != b._nums.keys():
        return None
    lam = None
    for (_, cv), (_, bv) in zip(c.terms(), b.terms()):
        ratio = cv / bv
        if lam is None:
            lam = ratio
        elif ratio != lam:
            return None
    return lam


_MAX_DEPTH = 64  # nested commutators tried before a conjugation is called non-convergent


def hadamard_conjugate(a: WeylOp, b: WeylOp, xi: ScalarLike) -> ConjugationResult:
    """Evaluate e^(xi*a) b e^(-xi*a) through the nested-commutator expansion.

    Returns Terminated with the exact finite sum
    b + xi[a,b] + xi^2/2! [a,[a,b]] + ... when some nested commutator
    vanishes, or Eigen when [a,b] is a scalar multiple of b.  Raises
    NonConvergenceError if neither happens within _MAX_DEPTH commutators.
    """
    xi = as_gauss(xi)
    if xi is NotImplemented:
        raise TypeError("xi must be an exact scalar")
    total = b
    nested = b
    weight = GaussRational(1)  # xi^depth / depth!
    for depth in range(1, _MAX_DEPTH + 1):
        nested = commutator(a, nested)
        if nested.is_zero():
            return Terminated(total)
        if depth == 1:
            lam = _scalar_ratio(nested, b)
            if lam is not None:
                return Eigen(lam, b)
        weight = weight * xi / depth
        total = total + nested * weight
    raise NonConvergenceError(_MAX_DEPTH)


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
    return _made(UniPoly, _act(w._nums, q._nums), w._den * q._den)


def _taylor_powers(w: WeylOp, q: UniPoly, order: int) -> list:
    """Numerator maps of w^m q over qden*wden^m, for m = 0 up to order or the last nonzero one."""
    powers = [q._nums]
    while len(powers) <= order and (nxt := _act(w._nums, powers[-1])):
        powers.append(nxt)
    return powers


def _taylor_sum(w: WeylOp, q: UniPoly, powers: list, xi: GaussRational) -> UniPoly:
    """sum_m xi^m/m! w^m q from the _taylor_powers of w and q, with one gcd."""
    xr, xim, xd = _ints(xi)  # xi = (xr + xim i)/xd
    s, top = xd * w._den, len(powers) - 1  # the sum is held over qden*s^M*M!, M = top
    den = c = s ** top * factorial(top)
    weights, ar, ai = [], 1, 0  # power m weighs (xr + xim i)^m s^(M-m) M!/m!
    for m in range(1, top + 2):
        weights.append((c * ar, c * ai))
        ar, ai, c = ar * xr - ai * xim, ar * xim + ai * xr, c // (s * m)
    return _made(UniPoly, _int_sum(
        (k, wr * re - wi * im, wr * im + wi * re)
        for (wr, wi), nums in zip(weights, powers) for k, (re, im) in nums.items()
    ), q._den * den)


def apply_exp_taylor(w: WeylOp, xi: ScalarLike, q: UniPoly, order: int) -> UniPoly:
    """Exact truncated Taylor action: sum_{m<=order} xi^m/m! w^m q."""
    if order < 0:
        raise ValueError("order must be >= 0")
    xi = as_gauss(xi)
    if xi is NotImplemented:
        raise TypeError("xi must be an exact scalar")
    if xi.is_zero():
        return q
    return _taylor_sum(w, q, _taylor_powers(w, q, order), xi)
