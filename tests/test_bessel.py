import cmath
import inspect
import math
import sys

import mpmath
import pytest

from weylfun import bessel
from weylfun.errors import AccuracyError, DomainError

# frozen against 40-digit mpmath evaluation
J0_AT_1 = 0.7651976865579666
J0_AT_1P8 = 0.33998641104255835
J3_AT_4 = 0.43017147387562194
J0_AT_1P5 = 0.5118276717359181
J2_AT_1P7 = 0.2817389423527414


def test_series_at_origin():
    assert bessel.j_series(0, 0.0) == 1.0
    assert bessel.j_series(2, 0.0) == 0.0


def test_series_high_order_where_half_x_underflows():
    assert bessel.j_series(121, 5e-324) == 0.0  # x/2 is 0.0; the log route took log(0)
    assert bessel.j_series(120, 5e-324) == 0.0


def test_series_frozen_value():
    assert bessel.j_series(0, 1.0) == pytest.approx(J0_AT_1, abs=1e-15)


@pytest.mark.parametrize("n", [0, 1, 3, 7])
@pytest.mark.parametrize("x", [0.3, 1.0, 4.5, 12.0])
def test_series_against_mpmath(n, x):
    # alternating-series cancellation grows with x; 1e-12 absolute still
    # pins every digit the identity checks rely on (they test x <= 10)
    want = float(mpmath.besselj(n, x))
    assert bessel.j_series(n, x) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        bessel.j_series(-1, 1.0)
    with pytest.raises(DomainError):
        bessel.j_series(0, float("nan"))
    with pytest.raises(DomainError):
        bessel.j_series(0, float("inf"))


def test_series_negative_x_parity():
    assert bessel.j_series(3, -2.0) == -bessel.j_series(3, 2.0)
    assert bessel.j_series(2, -2.0) == bessel.j_series(2, 2.0)


def naive_series(n, x):
    """The series with each denominator formed in full and a separate past-peak test."""
    if x < 0:
        return (-1) ** n * naive_series(n, -x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = x / 2.0
    half_sq = half * half
    if n <= 120:
        term = half ** n / math.factorial(n)
    else:
        term = math.exp(n * math.log(half) - math.lgamma(n + 1))
    total = term
    for m in range(1000):
        nxt = -term * half_sq / ((m + 1) * (m + n + 1))
        past_peak = (m + 1) * (m + n + 1) > half_sq
        if past_peak and abs(nxt) < 1e-16 * (1.0 + abs(total)):
            total += nxt
            return total
        term = nxt
        total += term
    raise AssertionError("did not settle")


@pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 1e-3, 0.3, 2.5, -7.25, 9.99, 10.0])
def test_series_is_bit_equal_to_the_naive_loop(x):
    for n in range(151):
        assert bessel.j_series(n, x) == naive_series(n, x), n


# ------------------------------------------------------------- integral

def test_integral_trivial_values():
    assert bessel.j_integral(0, 0.0, 64) == pytest.approx(1.0, abs=1e-15)
    assert bessel.j_integral(1, 0.0, 64) == pytest.approx(0.0, abs=1e-15)


def test_integral_matches_series():
    assert abs(bessel.j_integral(0, 1.0, 64) - bessel.j_series(0, 1.0)) <= 1e-13


def test_integral_node_validation():
    with pytest.raises(ValueError):
        bessel.j_integral(0, 1.0, 6)
    with pytest.raises(ValueError):
        bessel.j_integral(0, 1.0, 63)


def test_integral_insufficient_nodes_flagged():
    # 8 nodes cannot resolve x = 20; either the aliasing shows up as a
    # nonsense real value caught by cross-checking, or the imaginary
    # residue trips.  Accept both escape hatches but require one of them.
    try:
        v = bessel.j_integral(8, 20.0, 8)
    except AccuracyError:
        return
    assert abs(v - bessel.j_series(8, 20.0)) > 1e-6


def test_integral_auto_doubles_until_stable():
    want = bessel.j_series(6, 10.0)
    assert abs(bessel.j_integral_auto(6, 10.0) - want) <= 1e-13


def test_integral_auto_raises_at_node_cap():
    # the trapezoid sum needs more than 4096 nodes at x = 5000; J_0(5000) = -0.00665
    with pytest.raises(AccuracyError):
        bessel.j_integral_auto(0, 5000.0)


# --------------------------------------------------------------- miller

def test_miller_matches_series_small_x():
    vals = bessel.j_miller(5, 1.0)
    for n in range(6):
        assert abs(vals[n] - bessel.j_series(n, 1.0)) <= 1e-12


def test_miller_matches_series_x10():
    vals = bessel.j_miller(10, 10.0)
    for n in range(11):
        ref = bessel.j_series(n, 10.0)
        assert abs(vals[n] - ref) <= 1e-12 * (1 + abs(ref))


def test_miller_zero_shortcut():
    assert bessel.j_miller(4, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_miller_rejects_negative_x():
    with pytest.raises(DomainError):
        bessel.j_miller(3, -1.0)


def test_miller_rejects_a_start_above_the_limit():
    # the start index n_max + ceil(x) + 20 + ceil(8 x^(1/3)) sets the length of the work list
    with pytest.raises(DomainError):
        bessel.j_miller(3, 1e12)
    with pytest.raises(DomainError):
        bessel.j_miller(10**9, 0.0)


@pytest.mark.parametrize("x", [13.0, 20.0, 60.0, 100.0, 1000.0])
def test_miller_j0_against_mpmath(x):
    # a start of n_max + 20 + ceil(x) left 1.6e-12 at x = 13 and 4e-4 at x = 1000
    want = float(mpmath.besselj(0, x))
    assert abs(bessel.j_miller(0, x)[0] - want) <= 1e-14 * (1 + abs(want))


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-100, 1e-65, 1e-60])
def test_miller_tiny_x_against_mpmath(x):
    # one downward step (2k/x) J_k used to overflow before the rescale, and inf - inf gave nan
    with mpmath.workdps(40):
        want = [mpmath.besselj(n, x) for n in range(6)]
    got = bessel.j_miller(5, x)
    for n in range(6):
        if abs(want[n]) >= sys.float_info.min:
            assert abs(got[n] - want[n]) <= 1e-14 * abs(want[n]), n
        else:  # J_n(x) is below the normal floats
            assert abs(got[n] - want[n]) <= sys.float_info.min, n


@pytest.mark.parametrize("method", ["series", "integral", "miller"])
def test_three_methods_agree(method):
    value = {
        "series": lambda: bessel.j_series(2, 1.5),
        "integral": lambda: bessel.j_integral_auto(2, 1.5),
        "miller": lambda: bessel.j_miller(2, 1.5)[2],
    }[method]()
    assert value == pytest.approx(0.23208767214421472, abs=1e-12)


# --------------------------------------------------------- signed orders

def test_signed_reflection():
    assert bessel.j_signed(-1, 1.0) == -bessel.j_series(1, 1.0)
    assert bessel.j_signed(-2, 2.5) == bessel.j_series(2, 2.5)
    assert bessel.j_signed(0, 1.0) == bessel.j_series(0, 1.0)


def test_evaluators_take_only_order_and_argument():
    for fn in (bessel.j_series, bessel.j_signed, bessel.j_integral_auto):
        assert list(inspect.signature(fn).parameters) == ["n", "x"]
    assert list(inspect.signature(bessel.j_miller).parameters) == ["n_max", "x"]


def test_signed_picks_the_method_from_abs_x():
    for n in (0, 3, 4):
        assert bessel.j_signed(n, 10.0) == bessel.j_series(n, 10.0)
        assert bessel.j_signed(n, 10.5) == bessel.j_miller(n, 10.5)[n]
        # J_{-n}(-x) = J_n(x): the two reflection signs cancel
        assert bessel.j_signed(-n, -10.5) == bessel.j_signed(n, 10.5)
        assert bessel.j_signed(-n, 10.5) == (-1) ** n * bessel.j_signed(n, 10.5)


@pytest.mark.parametrize("x", [s * v for v in (10.5, 13, 20, 40, 60, 100, 1000, 20000)
                               for s in (1, -1)])
def test_signed_against_mpmath(x):
    # the series alone is off by 1e-12 at x = 13 and by 0.4 at x = 40
    for n in range(-45, 46):
        want = float(mpmath.besselj(n, x))
        assert abs(bessel.j_signed(n, x) - want) <= 1e-12 * (1 + abs(want)), n


def _signed_model(n, x):
    """J_n(x) from one evaluator call, apart from the _j_orders table that j_signed reads:
    j_series(|n|, x) for |x| <= 10 and j_miller(|n|, |x|)[|n|] beyond, signs written out."""
    m = abs(n)
    if abs(x) <= 10.0:
        value, flip = bessel.j_series(m, x), n < 0  # j_series applies J_m(-x) = (-1)^m J_m(x)
    else:
        value, flip = bessel.j_miller(m, abs(x))[m], (n < 0) != (x < 0)
    return -value if flip and m % 2 else value


@pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, 0.3, -0.3, 5.0, -7.5, 9.99, 10.0, -10.0,
                               10.5, -13.0, 40.0, -1000.0])
def test_signed_equals_the_per_method_model(x):
    for n in range(-60, 61):
        assert bessel.j_signed(n, x).hex() == _signed_model(n, x).hex(), n


@pytest.mark.parametrize("x", [1.0, -3.0, 11.0])
def test_signed_rejects_an_order_above_the_limit_for_every_x(x):
    # the series used to return 0.0 here while |x| > 10 already raised
    for n in (100_001, -100_001):
        with pytest.raises(DomainError, match="above 100000"):
            bessel.j_signed(n, x)


def test_signed_at_the_order_limit():
    assert bessel.j_signed(100_000, 1.0) == 0.0


def test_signed_rejects_what_no_method_covers():
    with pytest.raises(DomainError, match="x must be finite"):
        bessel.j_signed(-2, float("nan"))
    with pytest.raises(DomainError, match="x must be finite"):
        bessel.j_signed(1, float("-inf"))
    # the Miller start order passes its limit near |x| = 1e5
    with pytest.raises(DomainError, match="start order"):
        bessel.j_signed(0, -1e12)


# ----------------------------------------------------------- derivatives

def test_derivative_m0_identity():
    assert bessel.j_derivative_m(4, 0, 1.3) == bessel.j_series(4, 1.3)


def test_derivative_first_vs_finite_difference():
    d = bessel.j_derivative_m(0, 1, 1.0)
    assert d == pytest.approx(-bessel.j_series(1, 1.0), abs=1e-15)
    h = 1e-6
    fd = (bessel.j_series(0, 1.0 + h) - bessel.j_series(0, 1.0 - h)) / (2 * h)
    assert abs(d - fd) <= 1e-8


def test_derivative_second_vs_finite_difference():
    d = bessel.j_derivative_m(3, 2, 2.0)
    h = 1e-4
    fd = (
        bessel.j_series(3, 2.0 + h) - 2 * bessel.j_series(3, 2.0) + bessel.j_series(3, 2.0 - h)
    ) / (h * h)
    assert abs(d - fd) <= 1e-6


def test_derivative_rejects_negative_m():
    with pytest.raises(ValueError):
        bessel.j_derivative_m(0, -1, 1.0)


# ------------------------------------------------------------- identities

def test_addition_at_y_zero():
    assert bessel.j_addition(2, 1.7, 0.0, 10) == bessel.j_series(2, 1.7)


def test_addition_formula_values():
    got = bessel.j_addition(0, 1.1, 0.7, 30)
    assert abs(got - J0_AT_1P8) <= 1e-12
    got = bessel.j_addition(3, 2.0, 2.0, 40)
    assert abs(got - J3_AT_4) <= 1e-12


def test_jacobi_anger_trivial():
    cos_sum, sin_sum = bessel.jacobi_anger_partial(0.0, 0.9, 10)
    assert cos_sum == pytest.approx(1.0)
    assert sin_sum == pytest.approx(1.0)


def test_jacobi_anger_normalization():
    _, sin_sum = bessel.jacobi_anger_partial(2.0, 0.0, 40)
    assert abs(sin_sum - 1.0) <= 1e-12  # sum of all J_n(x) is 1


def test_jacobi_anger_values():
    x, y = 2.0, math.pi / 3
    cos_sum, sin_sum = bessel.jacobi_anger_partial(x, y, 40)
    assert abs(cos_sum - cmath.exp(1j * x * math.cos(y))) <= 1e-12
    assert abs(sin_sum - cmath.exp(1j * x * math.sin(y))) <= 1e-12


def test_generating_function_partial():
    for t in (0.7, 1.3, -0.5):
        got = bessel.j_genfun_partial(t, 1.0, 40)
        want = math.exp(1.0 * (t - 1.0 / t) / 2.0)
        assert abs(got - want) <= 1e-12
    with pytest.raises(DomainError):
        bessel.j_genfun_partial(0.0, 1.0, 10)


def test_translation_trivial_and_values():
    assert bessel.j_translate_partial(3, 2.0, 0.0, 0) == bessel.j_series(3, 2.0)
    got = bessel.j_translate_partial(0, 1.0, 0.5, 30)
    assert abs(got - J0_AT_1P5) <= 1e-10
    got = bessel.j_translate_partial(2, 2.0, -0.3, 30)
    assert abs(got - J2_AT_1P7) <= 1e-10


@pytest.mark.parametrize("n,x", [(0, 1.0), (3, 5.0), (0, 0.01), (5, 2.0)])
def test_ode_residual_bound(n, x):
    assert abs(bessel.j_ode_residual(n, x)) <= 1e-10 * (1 + x * x)


def test_ode_residual_domain():
    with pytest.raises(DomainError):
        bessel.j_ode_residual(0, 0.0)


# ------------------------------------------------- one table per identity sum

@pytest.fixture
def bessel_calls(monkeypatch):
    """Count the calls of one bessel evaluator made through the module."""
    def install(name):
        calls = []
        inner = getattr(bessel, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(bessel, name, counted)
        return calls
    return install


def test_translation_evaluates_each_order_once(bessel_calls):
    series = bessel_calls("j_series")
    bessel.j_translate_partial(3, 2.5, 0.4, 30)
    assert len(series) <= 34  # |orders| 0..33; one j_signed per term made 496 calls


def test_derivative_evaluates_one_parity(bessel_calls):
    series = bessel_calls("j_series")
    bessel.j_derivative_m(4, 3, 2.0)
    assert sorted(n for n, _ in series) == [1, 3, 5, 7]


def test_jacobi_anger_makes_one_miller_run(bessel_calls):
    miller = bessel_calls("j_miller")
    bessel.jacobi_anger_partial(20000.0, 0.3, 40)
    assert len(miller) == 1  # one run per order made 81


HUGE_CUT = 10**9
IDENTITY_SUMS_AT_A_HUGE_CUT = [
    lambda: bessel.j_derivative_m(0, HUGE_CUT, 1.0),
    lambda: bessel.j_addition(0, 1.0, 0.5, HUGE_CUT),
    lambda: bessel.jacobi_anger_partial(1.0, 0.0, HUGE_CUT),
    lambda: bessel.j_genfun_partial(0.5, 1.0, HUGE_CUT),
    lambda: bessel.j_translate_partial(0, 1.0, 0.5, HUGE_CUT),
    lambda: bessel.j_ode_residual(HUGE_CUT, 1.0),
]


@pytest.mark.parametrize("identity_sum", IDENTITY_SUMS_AT_A_HUGE_CUT)
def test_identity_sum_rejects_an_order_above_the_limit(bessel_calls, identity_sum):
    series, miller = bessel_calls("j_series"), bessel_calls("j_miller")
    with pytest.raises(DomainError, match="above 100000"):
        identity_sum()
    assert series == [] and miller == []  # raised before evaluating a single order


def naive_derivative(n, m, x):
    acc = 0.0
    for k in range(m + 1):
        acc += (-1) ** k * math.comb(m, k) * _signed_model(n - m + 2 * k, x)
    return acc / 2.0 ** m


def naive_addition(n, x, y, k_cut):
    acc = 0.0
    for k in range(-k_cut, k_cut + 1):
        acc += _signed_model(n - k, x) * _signed_model(k, y)
    return acc


def naive_jacobi_anger(x, y, n_cut):
    cos_sum = sin_sum = 0j
    for n in range(-n_cut, n_cut + 1):
        jn = _signed_model(n, x)
        phase = cmath.exp(1j * n * y)
        cos_sum += 1j ** (n % 4) * jn * phase
        sin_sum += jn * phase
    return cos_sum, sin_sum


def naive_genfun(t, x, n_cut):
    acc = 0.0
    for n in range(-n_cut, n_cut + 1):
        acc += t ** n * _signed_model(n, x)
    return acc


def naive_translate(n, x, y, m_cut):
    acc, weight = 0.0, 1.0
    for m in range(m_cut + 1):
        acc += weight * naive_derivative(n, m, x)
        weight *= y / (m + 1)
    return acc


@pytest.mark.parametrize("x", [s * v for v in (0.3, 1.0, 2.5, 4.7, 7.25, 9.99, 10.0)
                               for s in (1, -1)])
def test_identity_sums_equal_per_order_sums_in_the_series_range(x):
    # bit-equal to one evaluator call per term, so the verify report stays byte-stable
    for n in (-5, 0, 3):
        for m in (0, 1, 4, 7):
            assert bessel.j_derivative_m(n, m, x) == naive_derivative(n, m, x)
        assert bessel.j_addition(n, x, 1.3, 30) == naive_addition(n, x, 1.3, 30)
        assert bessel.j_addition(n, 0.8, x, 30) == naive_addition(n, 0.8, x, 30)
        assert bessel.j_translate_partial(n, x, -0.4, 30) == naive_translate(n, x, -0.4, 30)
    assert bessel.jacobi_anger_partial(x, 0.9, 40) == naive_jacobi_anger(x, 0.9, 40)
    for t in (0.75, -1.25):
        assert bessel.j_genfun_partial(t, x, 40) == naive_genfun(t, x, 40)
    if x > 0:
        for n in (-4, 0, 2):
            y = _signed_model(n, x)
            y1, y2 = naive_derivative(n, 1, x), naive_derivative(n, 2, x)
            assert bessel.j_ode_residual(n, x) == x * x * y2 + x * y1 + (x * x - n * n) * y


@pytest.mark.parametrize("x", [1000.0, -1000.0, 20000.0])
def test_one_miller_table_matches_mpmath_partial_sums(x):
    with mpmath.workdps(30):
        row = {n: mpmath.besselj(n, x) for n in range(-40, 41)}
        y, t = mpmath.mpf("0.3"), mpmath.mpf("-0.9")
        cos_want = complex(sum(mpmath.mpc(0, 1) ** n * row[n] * mpmath.expj(n * y) for n in row))
        sin_want = complex(sum(row[n] * mpmath.expj(n * y) for n in row))
        gen_want = float(sum(t ** n * row[n] for n in row))
    cos_sum, sin_sum = bessel.jacobi_anger_partial(x, 0.3, 40)
    assert abs(cos_sum - cos_want) <= 1e-12
    assert abs(sin_sum - sin_want) <= 1e-12
    assert abs(bessel.j_genfun_partial(-0.9, x, 40) - gen_want) <= 1e-12


# each identity sum with a float variable that never reaches an evaluator
VARIABLE_SUMS = {
    "j_genfun_partial": ("t", lambda t: bessel.j_genfun_partial(t, 1.0, 10)),
    "jacobi_anger_partial": ("y", lambda y: bessel.jacobi_anger_partial(1.0, y, 10)),
    "j_translate_partial": ("y", lambda y: bessel.j_translate_partial(1, 1.0, y, 10)),
}


@pytest.mark.parametrize("name", sorted(VARIABLE_SUMS))
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_identity_sums_reject_a_non_finite_variable(name, v):
    arg, evaluate = VARIABLE_SUMS[name]
    with pytest.raises(DomainError, match=f"{arg} must be finite"):
        evaluate(v)


# ------------------------------------------------------------ cross checks

@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 10.0])
def test_cross_method_agreement(x):
    miller = bessel.j_miller(10, x)
    for n in range(11):
        s = bessel.j_series(n, x)
        scale = 1e-12 * (1 + abs(s))
        assert abs(s - bessel.j_integral_auto(n, x)) <= scale
        assert abs(s - miller[n]) <= scale


def test_magnitude_bound():
    for x in (0.5, 1.0, 5.0, 10.0):
        for n in range(11):
            assert abs(bessel.j_series(n, x)) <= 1.0


def test_recurrence_residual():
    for x in (1.0, 5.0):
        for n in range(1, 9):
            lhs = (2 * n / x) * bessel.j_series(n, x)
            rhs = bessel.j_series(n - 1, x) + bessel.j_series(n + 1, x)
            assert abs(lhs - rhs) <= 1e-12
