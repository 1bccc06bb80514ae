"""Exact scalar and polynomial arithmetic.

Coefficients everywhere in the symbolic layer are Gaussian rationals
(complex numbers with arbitrary-precision rational real and imaginary
parts).  Floats enter only at evaluation boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Union

ScalarLike = Union[int, Fraction, "GaussRational"]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact scalar (int or Fraction), got {type(v).__name__}")


class GaussRational:
    """Exact complex scalar re + im*i, stored as ints (re_num + im_num*i) / den.

    den > 0 and gcd(re_num, im_num, den) == 1, so equal values have equal fields.
    Fraction appears only at the boundaries: the constructor, .re/.im and text.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        re, im = _as_fraction(re), _as_fraction(im)
        den = lcm(re.denominator, im.denominator)
        self._re = re.numerator * (den // re.denominator)
        self._im = im.numerator * (den // im.denominator)
        self._den = den

    @classmethod
    def from_complex(cls, z: complex) -> "GaussRational":
        """Exact conversion of a float/complex value (binary fractions)."""
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    re = property(lambda self: Fraction(self._re, self._den), doc="Real part, a Fraction.")
    im = property(lambda self: Fraction(self._im, self._den), doc="Imaginary part, a Fraction.")

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_real(self) -> bool:
        return not self._im

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            other = as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._den, other._den
        return _reduced(self._re * d2 + other._re * d1, self._im * d2 + other._im * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented passes through

    def __neg__(self):
        return _reduced(-self._re, -self._im, self._den)

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            other = as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return _reduced(a * c - b * d, a * d + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d, e = self._re, self._im, other._re, other._im, other._den
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero GaussRational")
        return _reduced((a * c + b * d) * e, (b * c - a * d) * e, self._den * norm)

    def __rtruediv__(self, other):
        other = as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = _reduced(1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self._re / self._den, self._im / self._den)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i" if im not in (1, -1) else ("i" if im == 1 else "-i")
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{re}{sign}{imtxt}"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


def _reduced(re: int, im: int, den: int) -> GaussRational:
    """GaussRational (re + im*i) / den from ints with den > 0, by one gcd unless den == 1."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    out = object.__new__(GaussRational)
    out._re, out._im, out._den = re, im, den
    return out


def as_gauss(v):
    """Coerce int/Fraction to GaussRational; NotImplemented otherwise."""
    if isinstance(v, GaussRational):
        return v
    if isinstance(v, (int, Fraction)):
        return _reduced(v.numerator, 0, v.denominator)
    return NotImplemented


GR_ZERO = GaussRational(0)


# ------------------------------------------------------------ term maps
# UniPoly, ShiftedPoly and WeylOp store a term map: a dict from key (a
# degree, or an (x, p) exponent pair) to a nonzero GaussRational.  No zero
# coefficient is ever stored, so two term maps are equal exactly when the
# values they represent are.  Results built by these helpers are already in
# that form and are wrapped without passing through a constructor.


def _terms_sum(pairs) -> dict:
    """Sum exact (key, coefficient) pairs into a term map."""
    out = {}
    for k, c in pairs:
        s = out.get(k)
        out[k] = c if s is None else s + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _terms_from(items, check_key) -> dict:
    """Validate caller input (a mapping or (key, coefficient) pairs) into a term map."""

    def checked():
        for k, c in items.items() if isinstance(items, Mapping) else items:
            check_key(k)
            g = as_gauss(c)
            if g is NotImplemented:
                raise TypeError(f"bad coefficient {c!r}")
            yield k, g

    return _terms_sum(checked())


def _terms_add(a: dict, b: dict) -> dict:
    return _terms_sum(chain(a.items(), b.items()))


def _terms_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _wrap(cls, terms: dict):
    """An instance of cls (UniPoly or WeylOp) holding an already-normalized term map."""
    out = object.__new__(cls)
    out._terms = terms
    return out


def _scaled(cls, terms: dict, other):
    """terms times the scalar other, wrapped in cls; NotImplemented for a non-scalar."""
    g = as_gauss(other)
    if g is NotImplemented:
        return NotImplemented
    return _wrap(cls, {k: c * g for k, c in terms.items()} if not g.is_zero() else {})


def _check_degree(k) -> None:
    if not isinstance(k, int):
        raise TypeError(f"degree must be an int, got {type(k).__name__}")


class UniPoly:
    """Sparse exact univariate polynomial, degree -> GaussRational.

    Values are immutable by convention; every operation returns a new
    polynomial with no stored zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: Mapping[int, ScalarLike] | Iterable = ()):
        self._terms = _terms_from(coeffs, _check_degree)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls({0: 1})

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: ScalarLike = 1) -> "UniPoly":
        return cls({degree: coeff})

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, k: int) -> GaussRational:
        return self._terms.get(k, GR_ZERO)

    def terms(self):
        """Sorted (degree, coefficient) pairs, ascending degree."""
        return tuple(sorted(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _wrap(UniPoly, _terms_add(self._terms, other._terms))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _wrap(UniPoly, _terms_add(self._terms, _terms_neg(other._terms)))

    def __neg__(self):
        return _wrap(UniPoly, _terms_neg(self._terms))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            b = other._terms
            return _wrap(UniPoly, _terms_sum(
                (k1 + k2, c1 * c2) for k1, c1 in self._terms.items() for k2, c2 in b.items()
            ))
        return _scaled(UniPoly, self._terms, other)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return _wrap(UniPoly, {k - 1: c * k for k, c in self._terms.items() if k > 0})

    def shift(self, j: int) -> "UniPoly":
        """Multiply by x**j."""
        if j < 0:
            raise ValueError("shift exponent must be nonnegative")
        return _wrap(UniPoly, {k + j: c for k, c in self._terms.items()})

    def evaluate(self, x0):
        """Horner evaluation: exact for exact input, complex for float input."""
        if isinstance(x0, (GaussRational, int, Fraction)):
            arg = as_gauss(x0)
            acc = GR_ZERO
            for k in range(self.degree, -1, -1):
                acc = acc * arg + self._terms.get(k, GR_ZERO)
            return acc
        arg = complex(x0)
        acc = 0j
        for k in range(self.degree, -1, -1):
            c = self._terms.get(k)
            acc = acc * arg + (complex(c) if c is not None else 0.0)
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"UniPoly<{format_poly(self)}>"


def format_poly(q: UniPoly, var: str = "x") -> str:
    """Canonical text form: descending powers, exact rational coefficients."""
    if q.is_zero():
        return "0"
    parts = []
    for k, c in sorted(q.terms(), key=lambda t: t[0], reverse=True):
        if c.is_real():
            neg = c.re < 0
            mag = -c.re if neg else c.re
            body = _term_text(str(mag), mag == 1, k, var)
        else:
            neg = False
            body = _term_text(f"({c})", False, k, var)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _term_text(coeff_txt: str, coeff_is_one: bool, k: int, var: str) -> str:
    if k == 0:
        return coeff_txt
    xpart = var if k == 1 else f"{var}^{k}"
    if coeff_is_one:
        return xpart
    return f"{coeff_txt}*{xpart}"


class ShiftedPoly:
    """Exact sum of terms c_k * x**(alpha + k) with a fixed rational offset alpha.

    The terms are held as a UniPoly body in k, which may carry the negative
    k that shifted_derivative produces.  Two values with different offsets
    cannot be combined; the offset is a property of the instance, never mixed.
    """

    __slots__ = ("alpha", "_body")

    def __init__(self, alpha: int | Fraction, coeffs: Mapping[int, ScalarLike] | Iterable = ()):
        self.alpha = _as_fraction(alpha)
        self._body = UniPoly(coeffs)

    def is_zero(self) -> bool:
        return self._body.is_zero()

    def coeff(self, k: int) -> GaussRational:
        return self._body.coeff(k)

    def terms(self):
        return self._body.terms()

    def _compatible_body(self, other: "ShiftedPoly") -> UniPoly:
        if self.alpha != other.alpha:
            raise ValueError(
                f"cannot combine shifted polynomials with offsets {self.alpha} and {other.alpha}"
            )
        return other._body

    def __add__(self, other):
        if not isinstance(other, ShiftedPoly):
            return NotImplemented
        return _shifted(self.alpha, self._body + self._compatible_body(other))

    def __sub__(self, other):
        if not isinstance(other, ShiftedPoly):
            return NotImplemented
        return _shifted(self.alpha, self._body - self._compatible_body(other))

    def __neg__(self):
        return _shifted(self.alpha, -self._body)

    def __mul__(self, other):
        body = _scaled(UniPoly, self._body._terms, other)
        return body if body is NotImplemented else _shifted(self.alpha, body)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ShiftedPoly):
            return NotImplemented
        return self.alpha == other.alpha and self._body == other._body

    __hash__ = None  # type: ignore[assignment]

    def without_offset(self) -> UniPoly:
        """Drop the x**alpha factor, leaving an ordinary polynomial.

        Every surviving exponent alpha + k - alpha = k must be a
        nonnegative integer; anything else signals an algebra bug.
        """
        for k in self._body._terms:
            if k < 0:
                raise RuntimeError(
                    f"non-polynomial exponent {self.alpha}+{k} survived the offset removal"
                )
        return self._body

    def __repr__(self):
        inner = " ".join(f"{c}*x^({self.alpha}+{k})" for k, c in self.terms())
        return f"ShiftedPoly<{inner or '0'}>"


def _shifted(alpha: Fraction, body: UniPoly) -> ShiftedPoly:
    out = object.__new__(ShiftedPoly)
    out.alpha = alpha
    out._body = body
    return out


def shifted_derivative(s: ShiftedPoly) -> ShiftedPoly:
    """Formal derivative: c_k x^(a+k) -> c_k (a+k) x^(a+k-1)."""
    p, q = s.alpha.numerator, s.alpha.denominator  # factor (a + k) = (p + k q) / q
    terms = {k - 1: c * _reduced(p + k * q, 0, q) for k, c in s._body._terms.items() if p + k * q}
    return _shifted(s.alpha, _wrap(UniPoly, terms))


def binom_shifted(alpha: int | Fraction, n: int, k: int) -> Fraction:
    """Generalized binomial C(n+alpha, n-k) as a product formula.

    Equals the integer binomial coefficient whenever alpha is a
    nonnegative integer.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got k={k}, n={n}")
    alpha = _as_fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    num = den = 1
    for j in range(1, n - k + 1):
        num *= p + (k + j) * q
        den *= q * j
    return Fraction(num, den)
