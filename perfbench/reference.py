"""Reference results computed apart from weylfun, and the per-operation checks.

Exact results are compared with the benchmark's own integer and Fraction
sums and with its own implementation of the polynomial action of the Weyl
algebra; float results with mpmath at 30 digits.  Nothing here imports
weylfun, and nothing here runs inside a timed section.

Exact values travel as JSON: a Gaussian rational is a pair of ``"p/q"``
strings, a polynomial a list of ``[degree, re, im]``, an operator a list of
``[j, k, re, im]`` for the normal-ordered term ``x^j p^k``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 30

# Tolerances, each relative as tol * (1 + |reference|).
TOL_BESSEL = 1e-12  # the one bessel_cross_method uses
TOL_IDENTITY = 1e-11  # truncated Bessel identity sums against their closed forms
TOL_PSI = 1e-10
TOL_GENFUN = 1e-10
TOL_RK4 = 1e-9
TOL_FACTORED = 1e-12

ZERO = (Fraction(0), Fraction(0))
NEG_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k, period 4


# --------------------------------------------------- Gaussian rationals

def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_parse(pair):
    return (Fraction(pair[0]), Fraction(pair[1]))


# ---------------------------------------------------------- polynomials

def poly_parse(enc) -> dict:
    return {k: (Fraction(re), Fraction(im)) for k, re, im in enc}


def poly_clean(p: dict) -> dict:
    return {k: c for k, c in p.items() if c != ZERO}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = g_add(out.get(k, ZERO), c)
    return poly_clean(out)


def poly_scale(p: dict, c) -> dict:
    return poly_clean({k: g_mul(v, c) for k, v in p.items()})


def poly_deriv(p: dict, times: int = 1) -> dict:
    for _ in range(times):
        p = {k - 1: (v[0] * k, v[1] * k) for k, v in p.items() if k > 0}
    return p


def poly_shift(p: dict, j: int) -> dict:
    return {k + j: v for k, v in p.items()}


def real_poly(coeffs: dict) -> dict:
    """Integer/Fraction coefficients by degree -> Gaussian-rational polynomial."""
    return poly_clean({k: (Fraction(c), Fraction(0)) for k, c in coeffs.items()})


@lru_cache(maxsize=None)
def hermite_ref(n: int) -> dict:
    """H_n = sum_m (-1)^m n!/(m!(n-2m)!) (2x)^(n-2m), physicists' convention."""
    out = {}
    for m in range(n // 2 + 1):
        c = (-1) ** m * math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m))
        out[n - 2 * m] = c * 2 ** (n - 2 * m)
    return real_poly(out)


def binom_general(top: Fraction, k: int) -> Fraction:
    """C(top, k) = top (top-1) ... (top-k+1) / k! for rational top."""
    num = Fraction(1)
    for j in range(k):
        num *= top - j
    return num / math.factorial(k)


@lru_cache(maxsize=None)
def laguerre_ref(n: int, alpha: Fraction) -> dict:
    """L_n^(alpha) = sum_k (-1)^k C(n+alpha, n-k) x^k / k!."""
    out = {}
    for k in range(n + 1):
        out[k] = (-1) ** k * binom_general(n + alpha, n - k) / math.factorial(k)
    return real_poly(out)


def poly_eval_mp(p: dict, x):
    x = mpmath.mpmathify(x)
    return mpmath.fsum(mp_of(c) * x ** k for k, c in p.items())


def mp_of(c) -> mpmath.mpc:
    """Gaussian rational -> mpmath complex, rounded once at working precision."""
    return mpmath.mpc(mpmath.mpf(c[0].numerator) / c[0].denominator,
                      mpmath.mpf(c[1].numerator) / c[1].denominator)


# ------------------------------------------- the Weyl algebra, by action

def op_parse(enc) -> dict:
    return {(j, k): (Fraction(re), Fraction(im)) for j, k, re, im in enc}


def p_apply(q: dict, k: int) -> dict:
    """p^k q = (-i)^k q^(k)."""
    return poly_scale(poly_deriv(q, k), NEG_I_POW[k % 4])


def apply_ref(op: dict, q: dict) -> dict:
    """Action of sum c x^j p^k on q, monomial by monomial.

    x^j p^k x^e = (-i)^k e!/(e-k)! x^(e-k+j), zero when k > e.
    """
    out = {}
    for e, qe in q.items():
        for (j, k), c in op.items():
            if k > e:
                continue
            w = math.perm(e, k)
            re, im = g_mul(g_mul(c, qe), NEG_I_POW[k % 4])
            key = e - k + j
            old = out.get(key, ZERO)
            out[key] = (old[0] + re * w, old[1] + im * w)
    return poly_clean(out)


def monomial(d: int) -> dict:
    return {d: (Fraction(1), Fraction(0))}


def p_degree(op: dict) -> int:
    return max((k for _, k in op), default=0)


def same_action(lhs, rhs, degree: int) -> bool:
    """lhs(q) == rhs(q) for q = 1, x, ..., x^degree; lhs, rhs act on a polynomial.

    An operator whose p-degree is at most `degree` is fixed by its action on
    these monomials, so equality here is equality of operators.
    """
    return all(lhs(monomial(d)) == rhs(monomial(d)) for d in range(degree + 1))


def conj_substitution(a: dict, xi, b: dict):
    """e^(xi A) B e^(-xi A) for A = c x^m or c p^m, as an action on polynomials.

    Conjugation by c x^m fixes x and sends p to p + i m xi c x^(m-1); by
    c p^m it fixes p and sends x to x - i m xi c p^(m-1).  B's normal-ordered
    terms are substituted and applied factor by factor.
    """
    ((j0, k0), c), = a.items()
    i_unit = (Fraction(0), Fraction(1))
    if k0 == 0:  # A = c x^m
        m = j0
        shift = g_mul(g_mul(i_unit, (Fraction(m), Fraction(0))), g_mul(xi, c))

        def new_p(q):
            return poly_add(p_apply(q, 1), poly_scale(poly_shift(q, m - 1), shift))

        def act(q):
            out = {}
            for (j, k), coef in b.items():
                r = q
                for _ in range(k):
                    r = new_p(r)
                out = poly_add(out, poly_scale(poly_shift(r, j), coef))
            return out

        return act
    m = k0  # A = c p^m
    shift = g_mul(g_mul((Fraction(0), Fraction(-1)), (Fraction(m), Fraction(0))), g_mul(xi, c))

    def new_x(q):
        return poly_add(poly_shift(q, 1), poly_scale(p_apply(q, m - 1), shift))

    def act(q):
        out = {}
        for (j, k), coef in b.items():
            r = p_apply(q, k)
            for _ in range(j):
                r = new_x(r)
            out = poly_add(out, poly_scale(r, coef))
        return out

    return act


def exp_taylor_ref(abc, t: float, q: dict, order: int) -> dict:
    """sum_{m<=order} t^m/m! Op^m q, Op = a x^2 + b (xp+px) + c p^2, exactly."""
    a, b, c = map(g_parse, abc)  # float parts are exact binary fractions
    # xp + px = 2xp - i in normal order
    op = {(2, 0): a, (1, 1): g_mul(b, (Fraction(2), Fraction(0))),
          (0, 0): g_mul(b, (Fraction(0), Fraction(-1))), (0, 2): c}
    op = {key: v for key, v in op.items() if v != ZERO}
    tf = Fraction(t)
    acc, powq, weight = q, q, Fraction(1)
    for m in range(1, order + 1):
        powq = apply_ref(op, powq)
        weight = weight * tf / m
        acc = poly_add(acc, poly_scale(powq, (weight, Fraction(0))))
    return acc


# ------------------------------------------------------ float references

def close(value, ref, tol) -> bool:
    if isinstance(value, (list, tuple)):
        value = complex(value[0], value[1])
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    return abs(mpmath.mpc(value) - ref) <= tol * (1 + abs(ref))


def hermite_values_mp(n_max: int, x) -> list:
    """H_0(x) .. H_n_max(x) by H_{n+1} = 2x H_n - 2n H_{n-1} at 30 digits."""
    x = mpmath.mpf(x)
    vals = [mpmath.mpf(1), 2 * x]
    for n in range(1, n_max):
        vals.append(2 * x * vals[n] - 2 * n * vals[n - 1])
    return vals[: n_max + 1]


def laguerre_values_mp(n_max: int, alpha: Fraction, x) -> list:
    """L_0^a(x) .. L_n_max^a(x) by (n+1) L_{n+1} = (2n+a+1-x) L_n - (n+a) L_{n-1}."""
    x = mpmath.mpf(x)
    a = mpmath.mpf(alpha.numerator) / alpha.denominator
    vals = [mpmath.mpf(1), 1 + a - x]
    for n in range(1, n_max):
        vals.append(((2 * n + a + 1 - x) * vals[n] - (n + a) * vals[n - 1]) / (n + 1))
    return vals[: n_max + 1]


def psi_ref(n: int, x):
    x = mpmath.mpf(x)
    norm = mpmath.pi ** mpmath.mpf(-0.25) / mpmath.sqrt(2 ** n * mpmath.factorial(n))
    return norm * mpmath.exp(-x * x / 2) * mpmath.hermite(n, x)


def psi_derivative_ref(n: int, x):
    """psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1}."""
    down = mpmath.sqrt(mpmath.mpf(n) / 2) * psi_ref(n - 1, x) if n else 0
    return down - mpmath.sqrt(mpmath.mpf(n + 1) / 2) * psi_ref(n + 1, x)


def rk4_solution(abc):
    """The factor ODEs' solution t -> [f, g, h], by mpmath's Taylor-series solver.

    df/dt = a - 4i b f - 4 c f^2, dg/dt = b - 2i c f, dh/dt = c e^(-4i g),
    all zero at t = 0.  The returned function caches its series, so
    evaluating it at several times costs little more than at the last one.
    """
    a, b, c = (mpmath.mpc(re, im) for re, im in abc)

    def rhs(_t, y):
        return [a - 4j * b * y[0] - 4 * c * y[0] ** 2, b - 2j * c * y[0],
                c * mpmath.exp(-4j * y[1])]

    with mpmath.workdps(20):
        solution = mpmath.odefun(rhs, 0, [mpmath.mpc(0)] * 3)

    def at(t):
        with mpmath.workdps(20):
            return [+v for v in solution(t)]

    return at


def factored_ref(t: float, q: dict, x: float):
    """exp(f x^2) exp(g(xp+px)) exp(h p^2) q at x for the closed-form even-Hermite triple."""
    t = mpmath.mpf(t)
    w = 4 * t + 1
    f, g, h = 4 * t / w, -0.5j * mpmath.log(w), -t / w
    x = mpmath.mpf(x)
    total = mpmath.mpc(0)
    d, weight, m = q, mpmath.mpf(1), 0
    while d:
        for k, c in d.items():
            total += weight * mp_of(c) * mpmath.exp(-1j * (2 * k + 1) * g) * x ** k
        d = poly_deriv(d, 2)
        m += 1
        weight *= -h / m
    return mpmath.exp(f * x * x) * total


# ------------------------------------------------------------- checking

class Checker:
    """check(op, reply) -> True when the operation's output is correct."""

    def __init__(self):
        self._memo: dict = {}
        self._verdicts: dict = {}

    def reference(self, op, make):
        key = json.dumps(op)
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def check(self, op, reply) -> bool:
        if "value" not in reply:
            return False
        # weylfun is deterministic: the same output for the same input gets the same verdict
        key = json.dumps([op, reply["value"]])
        if key not in self._verdicts:
            kind, args, value = op[0], op[1:], reply["value"]
            self._verdicts[key] = getattr(self, "_" + kind)(op, args, value)
        return self._verdicts[key]

    # exact polynomial families
    def _hermite_recurrence(self, op, args, value):
        n = args[0]
        return len(value) == n + 1 and all(
            poly_parse(value[k]) == hermite_ref(k) for k in range(n + 1)
        )

    def _hermite_rodrigues(self, op, args, value):
        return poly_parse(value) == hermite_ref(args[0])

    _hermite_operator = _hermite_rodrigues

    def _laguerre_recurrence(self, op, args, value):
        n, a = args[0], Fraction(args[1])
        return len(value) == n + 1 and all(
            poly_parse(value[k]) == laguerre_ref(k, a) for k in range(n + 1)
        )

    def _laguerre_operator(self, op, args, value):
        return poly_parse(value) == laguerre_ref(args[0], Fraction(args[1]))

    _laguerre_explicit = _laguerre_operator

    # operators
    def _weyl_product(self, op, args, value):
        a, b, r = op_parse(args[0]), op_parse(args[1]), op_parse(value)
        deg = max(p_degree(a) + p_degree(b), p_degree(r))
        return same_action(lambda q: apply_ref(r, q),
                           lambda q: apply_ref(a, apply_ref(b, q)), deg)

    def _commutator(self, op, args, value):
        a, b, r = op_parse(args[0]), op_parse(args[1]), op_parse(value)
        if args[0] == [[1, 0, "1", "0"]] and args[1] == [[0, 1, "1", "0"]]:
            # [x, p] = i
            return r == {(0, 0): (Fraction(0), Fraction(1))}
        deg = max(p_degree(a) + p_degree(b), p_degree(r))

        def rhs(q):
            ab = apply_ref(a, apply_ref(b, q))
            ba = apply_ref(b, apply_ref(a, q))
            return poly_add(ab, poly_scale(ba, (Fraction(-1), Fraction(0))))

        return same_action(lambda q: apply_ref(r, q), rhs, deg)

    def _hadamard(self, op, args, value):
        if value[0] != "terminated":
            return False
        a, b, xi, r = op_parse(args[0]), op_parse(args[1]), g_parse(args[2]), op_parse(value[1])
        ((j0, k0),) = a
        # conjugation by p^m turns x into x + (const) p^(m-1)
        grow = max(k0 - 1, 0)
        deg = max([p_degree(r)] + [k + j * grow for j, k in b])
        return same_action(lambda q: apply_ref(r, q), conj_substitution(a, xi, b), deg)

    def _exp_taylor(self, op, args, value):
        ref = self.reference(
            op, lambda: exp_taylor_ref(args[0], args[1], poly_parse(args[2]), args[3])
        )
        return poly_parse(value) == ref

    def _cli(self, op, args, value):
        argv = args[0]
        code, out = value
        if code != 0:
            return False
        payload = json.loads(out)
        family = argv[1]
        alpha = Fraction(0)
        for arg in argv:
            if arg.startswith("--alpha="):
                alpha = Fraction(arg.split("=", 1)[1])

        def ref(n):
            return hermite_ref(n) if family == "hermite" else laguerre_ref(n, alpha)

        def matches(item):
            coeffs = {k: Fraction(c) for k, c in enumerate(item["coefficients"])}
            return real_poly(coeffs) == ref(item["n"])

        if argv[0] == "eval":
            return payload["n"] == int(argv[3]) and matches(payload)
        n_max = int(argv[3])
        return [item["n"] for item in payload] == list(range(n_max + 1)) and all(
            matches(item) for item in payload
        )

    # Bessel
    def _j_signed(self, op, args, value):
        n, x = args
        return close(value, self.reference(op, lambda: mpmath.besselj(n, x)), TOL_BESSEL)

    _j_integral_auto = _j_signed

    def _j_miller(self, op, args, value):
        n_max, x = args
        refs = self.reference(op, lambda: [mpmath.besselj(n, x) for n in range(n_max + 1)])
        return len(value) == n_max + 1 and all(
            close(v, r, TOL_BESSEL) for v, r in zip(value, refs)
        )

    def _j_addition(self, op, args, value):
        n, x, y, _k = args
        return close(value, self.reference(op, lambda: mpmath.besselj(n, x + y)), TOL_IDENTITY)

    def _jacobi_anger(self, op, args, value):
        x, y, _n = args
        xm, ym = mpmath.mpf(x), mpmath.mpf(y)
        cos_ref = mpmath.exp(1j * xm * mpmath.cos(ym))
        sin_ref = mpmath.exp(1j * xm * mpmath.sin(ym))
        return close(value[0], cos_ref, TOL_IDENTITY) and close(value[1], sin_ref, TOL_IDENTITY)

    def _j_genfun(self, op, args, value):
        t, x, _n = args
        tm, xm = mpmath.mpf(t), mpmath.mpf(x)
        return close(value, mpmath.exp(xm * (tm - 1 / tm) / 2), TOL_IDENTITY)

    def _j_translate(self, op, args, value):
        n, x, y, _m = args
        return close(value, self.reference(op, lambda: mpmath.besselj(n, x + y)), TOL_IDENTITY)

    # psi and generating-function partial sums
    def _psi_eval(self, op, args, value):
        return close(value, self.reference(op, lambda: psi_ref(*args)), TOL_PSI)

    def _psi_derivative(self, op, args, value):
        return close(value, self.reference(op, lambda: psi_derivative_ref(*args)), TOL_PSI)

    def _even_hermite_partial(self, op, args, value):
        t, x, n_terms = args

        def ref():
            tm, hs = mpmath.mpf(t), hermite_values_mp(2 * n_terms, x)
            return mpmath.fsum(tm ** n / mpmath.factorial(n) * hs[2 * n] for n in range(n_terms + 1))

        return close(value, self.reference(op, ref), TOL_GENFUN)

    def _hermite_genfun_partial(self, op, args, value):
        a, x, n_terms = args

        def ref():
            am, hs = mpmath.mpf(a), hermite_values_mp(n_terms, x)
            return mpmath.fsum(am ** n / mpmath.factorial(n) * hs[n] for n in range(n_terms + 1))

        return close(value, self.reference(op, ref), TOL_GENFUN)

    def _laguerre_genfun_partial(self, op, args, value):
        t, x, alpha, n_terms = args

        def ref():
            tm, ls = mpmath.mpf(t), laguerre_values_mp(n_terms, Fraction(alpha), x)
            return mpmath.fsum(ls[n] * tm ** n for n in range(n_terms + 1))

        return close(value, self.reference(op, ref), TOL_GENFUN)

    # disentangling
    def _disentangle_ode(self, op, args, value):
        abc, t_end, _steps = args
        solution = self.reference(["rk4_solution", abc], lambda: rk4_solution(abc))
        refs = self.reference([op[0], abc, t_end], lambda: solution(t_end))
        return all(close(v, r, TOL_RK4) for v, r in zip(value, refs))

    def _apply_factored(self, op, args, value):
        t, q, x = args
        return close(value, self.reference(op, lambda: factored_ref(t, poly_parse(q), x)),
                     TOL_FACTORED)
