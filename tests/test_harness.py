import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from weylfun import bessel, harness, polyfam, weyl
from weylfun.algebra import GaussRational, UniPoly
from weylfun.errors import UnknownCheckError
from weylfun.harness import run_check, run_suite
from weylfun.weyl import Eigen, Terminated, WeylOp


def test_registry_size():
    assert len(harness.REGISTRY) == 37  # the count perfbench/run.py expects


def test_run_check_exact_pass():
    result = run_check("hermite_triple_equality")
    assert result["pass"] and result["exact"] and result["abs_err"] == 0.0
    assert result["tolerance"] == 0.0


def test_even_hermite_partial_sum_at_one_point():
    closed = polyfam.even_hermite_closed(0.2, 0.0)
    assert abs(closed - 0.7453559924999299) <= 1e-12
    assert abs(polyfam.even_hermite_partial(0.2, 0.0, 80) - closed) <= 1e-9 * (1.0 + abs(closed))


def test_bessel_addition_at_one_case():
    rhs = bessel.j_series(0, 1.1 + 0.7)
    assert abs(rhs - 0.33998641104255835) <= 1e-13
    assert abs(bessel.j_addition(0, 1.1, 0.7, 30) - rhs) <= 1e-12


def test_rand_gauss_matches_two_fraction_draws():
    rng, model = random.Random(7), random.Random(7)
    for _ in range(1000):
        a, b, c, d = (model.randint(-3, 3), model.randint(1, 3),
                      model.randint(-3, 3), model.randint(1, 3))
        assert harness._rand_gauss(rng) == GaussRational(Fraction(a, b), Fraction(c, d))
    assert rng.getstate() == model.getstate()


def test_run_check_unknown_name():
    with pytest.raises(UnknownCheckError):
        run_check("no_such_identity")


def test_registry_checks_take_only_the_config():
    for name, fn in harness.REGISTRY.items():
        assert list(inspect.signature(fn).parameters) == ["seed"], name


def test_pass_invariant_encoding():
    names = ("weyl_commutator_table", "bessel_addition", "bessel_derivative_vs_finite_difference")
    for name in names:
        c = run_check(name)
        if c["exact"]:
            assert c["pass"] == (c["abs_err"] == 0.0)
        else:
            assert c["pass"] == (c["abs_err"] <= c["tolerance"])
            # neither numeric check scales its errors, so the reported pair sets abs_err
            lhs, rhs = (complex(c[k]["re"], c[k]["im"]) for k in ("lhs", "rhs"))
            assert c["abs_err"] == abs(lhs - rhs)
        assert c["abs_err"] >= 0.0


def test_numeric_result_fails_on_nan():
    c = harness._numeric_result({}, [(float("nan"), 0.0)], 1e-12)
    assert not c["pass"] and not math.isfinite(c["abs_err"])
    c = harness._numeric_result({}, [(1.0, 1.0), (0.0, float("nan")), (2.0, 2.0)], 1e-12)
    assert not c["pass"] and not math.isfinite(c["abs_err"])


@pytest.mark.parametrize("stream", [list, lambda pairs: (pair for pair in pairs)],
                         ids=["list", "generator"])
def test_exact_result_counts_unequal_pairs(stream):
    x, p = WeylOp.x(), WeylOp.p()
    pairs = [
        (UniPoly({1: 1}), UniPoly.x()),
        (UniPoly.one(), UniPoly()),  # unequal
        (x * p, WeylOp({(1, 1): 1})),
        (weyl.commutator(x, p), WeylOp()),  # unequal
        (Terminated(p), Terminated(WeylOp({(0, 1): 1}))),
        (Terminated(p), Eigen(GaussRational(0), p)),  # unequal
        (True, True),
        (False, True),  # unequal
    ]
    c = harness._exact_result({}, stream(pairs))
    assert c["exact"] and c["tolerance"] == 0.0
    assert c["abs_err"] == 4.0 and not c["pass"]


def test_exact_check_counts_each_wrong_route(monkeypatch):
    explicit = polyfam.laguerre_explicit

    def wrong_at_3(n, alpha):
        return explicit(n, alpha) + UniPoly.one() if n == 3 else explicit(n, alpha)

    monkeypatch.setattr(polyfam, "laguerre_explicit", wrong_at_3)
    c = run_check("laguerre_triple_equality")
    assert c["abs_err"] == 5.0 and not c["pass"]  # one pair at n = 3 per order


def test_bch_check_counts_the_missing_exception(monkeypatch):
    monkeypatch.setattr(weyl, "central_bch_prefactor", lambda a, b: GaussRational(2))
    c = run_check("weyl_bch_central_prefactor")
    assert c["abs_err"] == 2.0 and not c["pass"]  # [x, x] is not 2, and x^2, p did not raise


def test_antisymmetry_check_fails_on_a_wrong_commutator(monkeypatch):
    monkeypatch.setattr(weyl, "commutator", lambda a, b: a * b)
    c = run_check("weyl_commutator_antisymmetry")
    assert c["abs_err"] > 0.0 and not c["pass"]


def test_suite_all_pass_and_counts():
    report = run_suite()
    assert report["counts"]["fail"] == 0
    assert report["counts"]["pass"] == len(report["checks"]) == len(harness.REGISTRY)
    assert [c["name"] for c in report["checks"]] == list(harness.REGISTRY)
    for c in report["checks"]:
        assert math.isfinite(c["abs_err"]), c["name"]
        assert c["pass"] == (c["abs_err"] <= c["tolerance"]), c["name"]


def test_suite_filter():
    report = run_suite("hermite_*")
    names = [c["name"] for c in report["checks"]]
    assert names and all(n.startswith("hermite_") for n in names)
    assert report["suite_name"] == "weylfun-identities"
    assert report["config"] == {"filter": "hermite_*", "seed": 20260801}


def test_exact_checks_have_zero_tolerance():
    report = run_suite("*_triple_equality")
    assert report["checks"]
    for c in report["checks"]:
        assert c["exact"] and c["tolerance"] == 0.0


def test_report_round_trip():
    """The report is plain JSON data: its serialized text parses back to it."""
    report = run_suite("hermite_*")
    text = harness.report_serialize(report)
    assert json.loads(text) == report
    assert json.loads(text)["counts"]["fail"] == 0


def test_reports_are_deterministic():
    a = run_suite("weyl_*")
    b = run_suite("weyl_*")
    ta = harness.report_serialize(a).replace(a["timestamp"], "T")
    tb = harness.report_serialize(b).replace(b["timestamp"], "T")
    assert ta == tb


def test_seed_changes_random_draws_not_outcomes():
    a = run_check("algebra_ring_axioms", seed=1)
    b = run_check("algebra_ring_axioms", seed=2)
    assert a["pass"] and b["pass"]


def test_ode_residual_check_caches_no_hermite_sets():
    polyfam._hermite_upto.cache_clear()
    assert run_check("hermite_ode_residual")["pass"]
    assert polyfam._hermite_upto.cache_info().currsize == 0


def test_suite_peaks_below_one_mib():
    """The RK4 comparison streams its 10,001 steps; holding them all peaked at 3.0 MB."""
    tracemalloc.start()
    try:
        report = run_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["counts"] == {"pass": 37, "fail": 0}
    assert peak < 1 << 20


def test_cli_import_loads_no_dataclasses_inspect_or_datetime():
    probe = (
        "import sys; before = set(sys.modules); import weylfun.cli; "
        "print(sorted({'dataclasses', 'inspect', 'datetime'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_report_timestamp_is_utc_iso_seconds():
    stamp = run_suite("algebra_ring_axioms")["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
