import inspect
import json
import math

import pytest

from weylfun import bessel, harness, polyfam
from weylfun.errors import UnknownCheckError
from weylfun.harness import SuiteConfig, run_check, run_suite


def test_registry_size():
    assert len(harness.check_names()) >= 25


def test_run_check_exact_pass():
    result = run_check("hermite_triple_equality")
    assert result.passed and result.exact and result.abs_err == 0.0
    assert result.tolerance == 0.0


def test_even_hermite_partial_sum_at_one_point():
    closed = polyfam.even_hermite_closed(0.2, 0.0)
    assert abs(closed - 0.7453559924999299) <= 1e-12
    assert abs(polyfam.even_hermite_partial(0.2, 0.0, 80) - closed) <= 1e-9 * (1.0 + abs(closed))


def test_bessel_addition_at_one_case():
    rhs = bessel.j_series(0, 1.1 + 0.7)
    assert abs(rhs - 0.33998641104255835) <= 1e-13
    assert abs(bessel.j_addition(0, 1.1, 0.7, 30) - rhs) <= 1e-12


def test_run_check_unknown_name():
    with pytest.raises(UnknownCheckError):
        run_check("no_such_identity")


def test_registry_checks_take_only_the_config():
    for name, fn in harness.REGISTRY.items():
        assert list(inspect.signature(fn).parameters) == ["cfg"], name


def test_pass_invariant_encoding():
    names = ("weyl_commutator_table", "bessel_addition", "bessel_derivative_vs_finite_difference")
    for name in names:
        c = run_check(name)
        if c.exact:
            assert c.passed == (c.abs_err == 0.0)
        else:
            assert c.passed == (c.abs_err <= c.tolerance)
            # neither numeric check scales its errors, so the reported pair sets abs_err
            assert c.abs_err == abs(c.lhs - c.rhs)
        assert c.abs_err >= 0.0


def test_numeric_result_fails_on_nan():
    c = harness._numeric_result({}, [(float("nan"), 0.0)], 1e-12)
    assert not c.passed and not math.isfinite(c.abs_err)
    c = harness._numeric_result({}, [(1.0, 1.0), (0.0, float("nan")), (2.0, 2.0)], 1e-12)
    assert not c.passed and not math.isfinite(c.abs_err)


def test_suite_all_pass_and_counts():
    report = run_suite()
    assert report.counts["fail"] == 0
    assert report.counts["pass"] == len(report.checks) == len(harness.check_names())
    assert [c.name for c in report.checks] == list(harness.REGISTRY)
    for c in report.checks:
        assert math.isfinite(c.abs_err), c.name
        assert c.passed == (c.abs_err <= c.tolerance), c.name


def test_suite_filter():
    report = run_suite(SuiteConfig(filter="hermite_*"))
    names = [c.name for c in report.checks]
    assert names and all(n.startswith("hermite_") for n in names)
    assert report.suite_name == "weylfun-identities"
    assert report.config == {"filter": "hermite_*", "seed": 20260801}


def test_exact_checks_have_zero_tolerance():
    report = run_suite(SuiteConfig(filter="*_triple_equality"))
    assert report.checks
    for c in report.checks:
        assert c.exact and c.tolerance == 0.0


def test_report_round_trip():
    report = run_suite(SuiteConfig(filter="algebra_*"))
    text = harness.report_serialize(report)
    parsed = harness.report_parse(text)
    assert parsed == report
    assert json.loads(text)["counts"]["fail"] == 0


def test_reports_are_deterministic():
    cfg = SuiteConfig(filter="weyl_*")
    a = run_suite(cfg)
    b = run_suite(cfg)
    ta = harness.report_serialize(a).replace(a.timestamp, "T")
    tb = harness.report_serialize(b).replace(b.timestamp, "T")
    assert ta == tb


def test_seed_changes_random_draws_not_outcomes():
    a = run_check("algebra_ring_axioms", config=SuiteConfig(seed=1))
    b = run_check("algebra_ring_axioms", config=SuiteConfig(seed=2))
    assert a.passed and b.passed


def test_ode_residual_check_caches_no_hermite_sets():
    polyfam._hermite_upto.cache_clear()
    assert run_check("hermite_ode_residual").passed
    assert polyfam._hermite_upto.cache_info().currsize == 0
