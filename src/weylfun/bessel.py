"""Bessel functions of the first kind, integer order, by three independent
methods (ascending series, periodic-trapezoid integral, Miller downward
recurrence) plus the classical identities built on them.
"""

from __future__ import annotations

import cmath
import math

from .errors import AccuracyError, DomainError

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i**n cycles with period 4


# j_miller holds one float per order from its start index down to 0
_MILLER_MAX_START = 100_000
_LOG_HALF_TINY = math.log(5e-324) - math.log(2)  # log of half the least subnormal float


def j_series(n: int, x: float) -> float:
    """Ascending power series with multiplicative term updates.

    Term m is term m-1 times -(x/2)^2 over the int denominator d = m(m+n),
    so no factorial is ever formed past the first; the sum stops once the
    next term is below 1e-16*(1+|sum|) and d > (x/2)^2, where the term
    magnitudes have started to decay.
    """
    if n < 0:
        raise ValueError("j_series takes n >= 0; use j_signed for negative orders")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0:
        return (-1) ** n * j_series(n, -x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = x / 2.0
    half_sq = half * half
    if n <= 120:
        term = half ** n / math.factorial(n)
    else:  # half is 0.0 where x/2 underflows, and then so is J_n(x)
        term = math.exp(n * math.log(half) - math.lgamma(n + 1)) if half else 0.0
    total = term
    neg_sq = -half_sq
    for m in range(1, 1001):
        d = m * (m + n)
        nxt = term * neg_sq / d
        if d > half_sq and abs(nxt) < 1e-16 * (1.0 + abs(total)):
            return total + nxt
        term = nxt
        total += term
    raise AccuracyError(f"series for J_{n}({x}) did not settle in 1000 terms")


def j_integral(n: int, x: float, quad_nodes: int) -> float:
    """Trapezoid rule on (1/2pi) int_{-pi}^{pi} e^{-i(n tau - x sin tau)} dtau.

    The integrand is 2pi-periodic, so the equal-weight sum converges
    geometrically in the node count.  The imaginary part must cancel; if
    it does not, the node count was too small.
    """
    if quad_nodes < 8 or quad_nodes % 2:
        raise ValueError("quad_nodes must be even and >= 8")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    h = 2.0 * math.pi / quad_nodes
    acc = 0j
    for k in range(quad_nodes):
        tau = -math.pi + k * h
        acc += cmath.exp(-1j * (n * tau - x * math.sin(tau)))
    val = acc / quad_nodes
    if abs(val.imag) > 1e-12 * (1.0 + abs(val.real)):
        raise AccuracyError(
            f"imaginary residue {val.imag:.3e} for J_{n}({x}) at {quad_nodes} nodes"
        )
    return val.real


def j_integral_auto(n: int, x: float) -> float:
    """Node-doubling wrapper around j_integral from 64 nodes, stopping at 1e-14 agreement.

    Raises AccuracyError if the node count reaches 4096 without agreement.
    """
    nodes, cap = 64, 4096
    prev = j_integral(n, x, nodes)
    while nodes < cap:
        nodes *= 2
        cur = j_integral(n, x, nodes)
        if abs(cur - prev) < 1e-14:
            return cur
        prev = cur
    raise AccuracyError(f"trapezoid sum for J_{n}({x}) did not settle within {cap} nodes")


def j_miller(n_max: int, x: float) -> list:
    """J_0..J_{n_max} by downward recurrence from a padded trial order.

    Upward recurrence is unstable for orders above x (Gautschi, SIAM Review 9,
    1967), so recurse downward from n_max + ceil(x) + 20 + ceil(8 x^(1/3)), past
    the turning region that widens like x^(1/3), with trial values (1, 0) and
    normalize with J_0 + 2 sum_{k>=1} J_{2k} = 1, the t = 1 slice of the generating
    function.  Raises DomainError when that start index is above
    _MILLER_MAX_START, before anything is allocated.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"j_miller requires finite x >= 0, got {x!r}")
    start = n_max + math.ceil(x) + 20 + math.ceil(8 * x ** (1 / 3))
    if start > _MILLER_MAX_START:
        raise DomainError(f"j_miller start order {start} is above {_MILLER_MAX_START}")
    if x == 0.0:
        return [1.0] + [0.0] * n_max
    vals = [0.0] * (start + 2)
    vals[start] = 1.0
    for k in range(start, 0, -1):
        vals[k - 1] = (2.0 * k / x) * vals[k] - vals[k + 1]
        while abs(vals[k - 1]) > 1e250:
            for i in range(k - 1, start + 2):
                vals[i] *= 1e-250
            if math.isinf(vals[k - 1]):  # tiny x overflowed the step: redo it from the scaled row
                vals[k - 1] = 2.0 * k * vals[k] / x - vals[k + 1]
    norm = vals[0] + 2.0 * sum(vals[k] for k in range(2, start + 1, 2))
    return [v / norm for v in vals[: n_max + 1]]


def j_signed(n: int, x: float) -> float:
    """J_n(x) for any integer n and real x, read from a one-order _j_orders table."""
    return _j_orders(range(n, n + 1), x)[n]


def _j_orders(orders: range, x: float) -> dict:
    """{k: J_k(x)} for k in orders: one j_series call per |k| at |x| for |x| <= 10,
    where the series loses at most ~e^10 eps to cancellation, or one j_miller run
    beyond, to the last |k| whose J_k(x) can be a nonzero float.  Raises DomainError
    for a non-finite x or an order above _MILLER_MAX_START before evaluating anything.

    J_{-n} = (-1)^n J_n and J_n(-x) = (-1)^n J_n(x) are forced by the
    t -> -1/t and t -> -t symmetries of the generating function.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    top = max(abs(orders[0]), abs(orders[-1]))
    if top > _MILLER_MAX_START:
        raise DomainError(f"order {top} is above {_MILLER_MAX_START}")
    if abs(x) <= 10.0:
        row = {m: j_series(m, abs(x)) for m in {abs(k) for k in orders}}
    else:  # J_m(x) is 0.0 where its bound (|x|/2)^m / m! (DLMF 10.14.4) is below _LOG_HALF_TINY
        log_half = math.log(abs(x) / 2)
        if top * log_half - math.lgamma(top + 1) >= _LOG_HALF_TINY:
            row = j_miller(top, abs(x))
        else:
            row = dict.fromkeys({abs(k) for k in orders}, 0.0)
            live = [m for m in row if m * log_half - math.lgamma(m + 1) >= _LOG_HALF_TINY]
            row.update(enumerate(j_miller(max(live), abs(x)) if live else ()))
    return {k: -row[abs(k)] if k % 2 and (k < 0) != (x < 0) else row[abs(k)] for k in orders}


def _derivative(table: dict, n: int, m: int) -> float:
    """2^-m sum_{k=0}^{m} (-1)^k C(m,k) J_{n-m+2k}, read from a _j_orders table.

    The signed binomial is stepped in ints, c -> -c(m-k)//(k+1), which is exact.
    """
    acc = 0.0
    c = 1  # (-1)^k C(m, k)
    for k in range(m + 1):
        acc += c * table[n - m + 2 * k]
        c = -c * (m - k) // (k + 1)
    return acc / 2.0 ** m


def j_derivative_m(n: int, m: int, x: float) -> float:
    """m-th derivative: 2^-m sum_{k=0}^{m} (-1)^k C(m,k) J_{n-m+2k}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _derivative(_j_orders(range(n - m, n + m + 1, 2), x), n, m)


def j_addition(n: int, x: float, y: float, k_cut: int = 30) -> float:
    """Truncated addition formula sum_{|k|<=K} J_{n-k}(x) J_k(y)."""
    if k_cut < 0:
        raise ValueError("k_cut must be >= 0")
    jx = _j_orders(range(n - k_cut, n + k_cut + 1), x)
    jy = _j_orders(range(-k_cut, k_cut + 1), y)
    acc = 0.0
    for k in range(-k_cut, k_cut + 1):
        acc += jx[n - k] * jy[k]
    return acc


def jacobi_anger_partial(x: float, y: float, n_cut: int = 40) -> tuple:
    """Two-sided partial sums of the plane-wave expansions.

    Returns (cos_sum, sin_sum) where cos_sum approximates e^{ix cos y}
    through sum i^n J_n(x) e^{iny} and sin_sum approximates e^{ix sin y}
    through sum J_n(x) e^{iny}.
    """
    if n_cut < 0:
        raise ValueError("n_cut must be >= 0")
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    table = _j_orders(range(-n_cut, n_cut + 1), x)
    cos_sum = sin_sum = 0j
    for n in range(-n_cut, n_cut + 1):
        jn = table[n]
        phase = cmath.exp(1j * n * y)
        cos_sum += _I_POW[n % 4] * jn * phase
        sin_sum += jn * phase
    return cos_sum, sin_sum


def j_genfun_partial(t: float, x: float, n_cut: int) -> float:
    """Two-sided partial sum of sum t^n J_n(x) (compare e^{x(t-1/t)/2})."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t == 0:
        raise DomainError("generating variable t must be nonzero")
    if n_cut < 0:
        raise ValueError("n_cut must be >= 0")
    table = _j_orders(range(-n_cut, n_cut + 1), x)
    acc = 0.0
    for n in range(-n_cut, n_cut + 1):
        acc += t ** n * table[n]
    return acc


def j_translate_partial(n: int, x: float, y: float, m_cut: int = 30) -> float:
    """Taylor translation sum_{m<=M} y^m/m! d^m/dx^m J_n(x)."""
    if m_cut < 0:
        raise ValueError("m_cut must be >= 0")
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    table = _j_orders(range(n - m_cut, n + m_cut + 1), x)
    acc = 0.0
    weight = 1.0  # y^m / m!
    for m in range(m_cut + 1):
        acc += weight * _derivative(table, n, m)
        weight *= y / (m + 1)
    return acc


def j_ode_residual(n: int, x: float) -> float:
    """x^2 y'' + x y' + (x^2 - n^2) y with derivatives from the m-th derivative formula."""
    if not x > 0:
        raise DomainError(f"residual is evaluated for x > 0, got {x!r}")
    table = _j_orders(range(n - 2, n + 3), x)
    y, y1, y2 = table[n], _derivative(table, n, 1), _derivative(table, n, 2)
    return x * x * y2 + x * y1 + (x * x - n * n) * y
