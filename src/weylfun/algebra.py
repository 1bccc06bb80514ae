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

from .errors import DomainError

ScalarLike = Union[int, Fraction, "GaussRational"]


class _Record:
    """Immutable record of its __slots__, built by position or keyword and checked by
    _validate; equal and hashed by class and fields, shown as Name(field=value, ...)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # bind by name; all-positional calls skip this
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self):
        pass

    def __reduce__(self):  # (class, fields): pickling rebuilds from it, equality compares it
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if not isinstance(other, _Record):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact scalar (int or Fraction), got {type(v).__name__}")


class GaussRational:
    """Exact complex scalar re + im*i, stored as ints (re_num + im_num*i) / den.

    den > 0 and gcd(re_num, im_num, den) == 1, so equal values have equal fields.
    Fraction appears only at the boundaries: the constructor, .re/.im and repr.
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
        return hash(self.re) if not self._im else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self._re / self._den, self._im / self._den)

    def __str__(self):
        return _gauss_text(self._re, self._im, self._den)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints with d > 0, by one gcd."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _gauss_text(re: int, im: int, den: int) -> str:
    """Text of the Gaussian value (re + im*i) / den with den > 0: 3/2, -i, 1/2+3i."""
    if not im:
        return _ratio_text(re, den)
    mag = "" if abs(im) == den else _ratio_text(abs(im), den)
    sign = "-" if im < 0 else "+" if re else ""
    return f"{_ratio_text(re, den) if re else ''}{sign}{mag}i"


def _reduced(re: int, im: int, den: int) -> GaussRational:
    """GaussRational (re + im*i) / den from ints with den > 0, by one gcd unless den == 1."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    out = object.__new__(GaussRational)
    out._re, out._im, out._den = re, im, den
    return out


def _ints(g: GaussRational) -> tuple:
    return g._re, g._im, g._den  # for kernels that weight numerator maps by a scalar


def as_gauss(v):
    """Coerce int/Fraction to GaussRational; NotImplemented otherwise."""
    if isinstance(v, GaussRational):
        return v
    if isinstance(v, (int, Fraction)):
        return _reduced(v.numerator, 0, v.denominator)
    return NotImplemented


GR_ZERO = GaussRational(0)


# ------------------------------------------------------------ term maps
# UniPoly, ShiftedPoly's body and WeylOp store a term map as Gaussian-integer
# numerators over one denominator, the layout of FLINT's fmpq_poly: _den > 0
# and _nums = {key: (re, im)}, the key a degree or an (x, p) exponent pair.
# No zero pair is stored and gcd(_den, every numerator) == 1, so two term maps
# are equal exactly when their fields are.  Arithmetic runs on the ints and
# brings each result to that form with one gcd (_made); a GaussRational is
# built only where a caller reads a coefficient (coeff, terms, exact evaluate).


def _int_sum(triples) -> dict:
    """Sum (key, re, im) integer triples into {key: (re, im)}, dropping zero sums."""
    out = {}
    for k, re, im in triples:
        s = out.get(k)
        out[k] = (re, im) if s is None else (s[0] + re, s[1] + im)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def _times(nums: dict, f: int):
    """(key, re * f, im * f) triples of a numerator map."""
    return ((k, re * f, im * f) for k, (re, im) in nums.items())


def _lowest(nums: dict, den: int):
    """(nums, den) with their common gcd divided out, skipped when den == 1."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            return {k: (re // g, im // g) for k, (re, im) in nums.items()}, den // g
    return nums, den


def _made(cls, nums: dict, den: int):
    """A cls (UniPoly or WeylOp) holding the nonzero numerator pairs nums over den > 0."""
    out = object.__new__(cls)
    out._nums, out._den = _lowest(nums, den)
    return out


def _from_items(items, check_key):
    """Validate caller input (a mapping or (key, coefficient) pairs) into (nums, den)."""
    coeffs = []
    for k, c in items.items() if isinstance(items, Mapping) else items:
        check_key(k)
        g = as_gauss(c)
        if g is NotImplemented:
            raise TypeError(f"bad coefficient {c!r}")
        coeffs.append((k, g))
    den = lcm(*(g._den for _, g in coeffs))
    return _lowest(_int_sum(
        (k, g._re * (den // g._den), g._im * (den // g._den)) for k, g in coeffs
    ), den)


# Shared by UniPoly and WeylOp, assigned in each class body.

def _combined(a, b, sign: int):
    """a + sign * b for term maps of one class; NotImplemented for any other operand."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    den = lcm(a._den, b._den)
    return _made(a.__class__, _int_sum(chain(
        _times(a._nums, den // a._den), _times(b._nums, sign * (den // b._den))
    )), den)


def _add(a, b):
    return _combined(a, b, 1)


def _sub(a, b):
    return _combined(a, b, -1)


def _neg(a):
    return _made(a.__class__, {k: (-re, -im) for k, (re, im) in a._nums.items()}, a._den)


def _eq(a, b):
    if b.__class__ is not a.__class__:
        return NotImplemented
    return a._den == b._den and a._nums == b._nums


def _scale(a, other):
    """a times the scalar other; NotImplemented for a non-scalar."""
    g = as_gauss(other)
    if g is NotImplemented:
        return NotImplemented
    gr, gi = g._re, g._im
    nums = {k: (re * gr - im * gi, re * gi + im * gr) for k, (re, im) in a._nums.items()}
    return _made(a.__class__, nums if gr or gi else {}, a._den * g._den)


def _coeff(a, key) -> GaussRational:
    v = a._nums.get(key)
    return _reduced(v[0], v[1], a._den) if v else GR_ZERO


def _terms(a):
    """Sorted (key, coefficient) pairs, one GaussRational per coefficient."""
    return tuple((k, _reduced(re, im, a._den)) for k, (re, im) in sorted(a._nums.items()))


def _check_int(k) -> None:
    if not isinstance(k, int):
        raise TypeError(f"degree must be an int, got {type(k).__name__}")


def _check_degree(k) -> None:
    _check_int(k)
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")


class UniPoly:
    """Sparse exact univariate polynomial, degree -> Gaussian-rational coefficient.

    Values are immutable by convention; every operation returns a new
    polynomial in the term-map form above.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Mapping[int, ScalarLike] | Iterable = ()):
        self._nums, self._den = _from_items(coeffs, _check_degree)

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
        return max(self._nums) if self._nums else -1

    def is_zero(self) -> bool:
        return not self._nums

    coeff, terms = _coeff, _terms
    __add__, __sub__, __neg__, __eq__ = _add, _sub, _neg, _eq

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            b = other._nums.items()
            return _made(UniPoly, _int_sum(
                (k1 + k2, ar * br - ai * bi, ar * bi + ai * br)
                for k1, (ar, ai) in self._nums.items() for k2, (br, bi) in b
            ), self._den * other._den)
        return _scale(self, other)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        nums = {k - 1: (re * k, im * k) for k, (re, im) in self._nums.items() if k > 0}
        return _made(UniPoly, nums, self._den)

    def shift(self, j: int) -> "UniPoly":
        """Multiply by x**j."""
        if j < 0:
            raise DomainError("shift exponent must be nonnegative")
        return _made(UniPoly, {k + j: v for k, v in self._nums.items()}, self._den)

    def evaluate(self, x0):
        """Horner evaluation: exact for exact input, complex for float input."""
        den = self._den
        if isinstance(x0, (GaussRational, int, Fraction)):
            x = as_gauss(x0)
            xr, xi, xd = x._re, x._im, x._den
            ar = ai = 0
            scale = 1  # xd ** (degree - k): the sum stays in numerators over den * xd**degree
            for k in range(self.degree, -1, -1):
                cr, ci = self._nums.get(k, (0, 0))
                ar, ai = ar * xr - ai * xi + cr * scale, ar * xi + ai * xr + ci * scale
                scale *= xd
            return _reduced(ar * xd, ai * xd, den * scale)
        arg = complex(x0)
        acc = 0j
        for k in range(self.degree, -1, -1):
            c = self._nums.get(k)
            acc = acc * arg + (complex(c[0] / den, c[1] / den) if c is not None else 0.0)
        return acc

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"UniPoly<{format_poly(self)}>"


def format_poly(q: UniPoly) -> str:
    """Canonical text form: descending powers, exact rational coefficients."""
    if q.is_zero():
        return "0"
    den, parts = q._den, []
    for k, (re, im) in sorted(q._nums.items(), reverse=True):
        if not im:
            neg = re < 0
            body = _term_text(_ratio_text(abs(re), den), abs(re) == den, k)
        else:
            neg = False
            body = _term_text(f"({_gauss_text(re, im, den)})", False, k)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _term_text(coeff_txt: str, coeff_is_one: bool, k: int) -> str:
    if k == 0:
        return coeff_txt
    xpart = "x" if k == 1 else f"x^{k}"
    if coeff_is_one:
        return xpart
    return f"{coeff_txt}*{xpart}"


class ShiftedPoly:
    """Exact sum of terms c_k * x**(alpha + k) with a fixed rational offset alpha.

    The terms are held as a UniPoly body in k, which may carry the negative
    k that shifted_derivative produces.  Two values with different offsets
    cannot be combined; the offset is a property of the instance, never mixed.
    No route in the package uses it any more; it awaits deletion.
    """

    __slots__ = ("alpha", "_body")

    def __init__(self, alpha: int | Fraction, coeffs: Mapping[int, ScalarLike] | Iterable = ()):
        self.alpha = _as_fraction(alpha)
        self._body = _made(UniPoly, *_from_items(coeffs, _check_int))

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
        body = _scale(self._body, other)
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
        for k in self._body._nums:
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
    body = s._body
    nums = {k - 1: (re * (p + k * q), im * (p + k * q)) for k, (re, im) in body._nums.items()
            if p + k * q}
    return _shifted(s.alpha, _made(UniPoly, nums, body._den * q))


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
