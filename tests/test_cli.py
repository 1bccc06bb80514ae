import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylfun import cli, harness, polyfam
from weylfun.algebra import GaussRational, UniPoly
from weylfun.cli import main
from weylfun.disentangle import EVEN_HERMITE_EXPONENT, exp_taylor_apply
from weylfun.weyl import Terminated, WeylOp, commutator, hadamard_conjugate, xp_plus_px


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


# sha256 of the full stdout; these exact outputs must stay byte-identical
# whatever the scalar layout behind them.
PINNED_OUTPUTS = [
    ("table hermite --n-max 30 --format json",
     "4bcf35e68e50de0048986b4e72f55ee65848107140fb04ef8c24a8eb5da726b3"),
    ("table laguerre --n-max 20 --alpha 1/2 --format csv",
     "a7fc6e56271e6fd2f37edde030764563bd538aeb0470d60633e83fdeb1fd3d6d"),
    ("eval hermite --n 25", "f6978cb6306420c0f315bd7375195c33864c2f53a2c10cb97afeccb8bdc29f96"),
    ("eval laguerre --n 20 --alpha 3/2",
     "7df6f09a100e4d26e545f861fe3e8af9f0175458c7eccbaecdaf196f73164ced"),
    ("eval hermite --n 17 --output json",
     "0bab2f7848c38b3d8270369e4b1647c9ae6329acb697ebc32453ea919a994542"),
    ("eval laguerre --n 12 --alpha=-1/2 --output json",
     "e1c08231de85aeb6947645769957cf9facde51aa03e998832e161a6ba7bfee7e"),
    ("table hermite --n-max 15", "017d839ac42ef00fd5920b89108daee079a4f27d2d275e0ac408a351bdc24c9a"),
    ("table laguerre --n-max 15 --alpha=5/2 --format json",
     "512102ffeeb45a3a8355b4ca1d10ca3e769ffd08e3c43f23c1fb60d8ee63aafb"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_exact_outputs_are_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_parser_is_built_once_on_first_use(capsys, monkeypatch):
    """The first main() call builds the 13 argparse parsers; later calls reuse them."""
    probe = "import weylfun.cli as c; print(c._build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert fresh.stdout.strip() == "0"  # importing the CLI builds nothing
    built = 0
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    counts = []
    for argv in (["eval", "hermite", "--n", "3"], ["table", "laguerre", "--n-max", "2"],
                 ["eval", "psi", "--n", "1", "--x", "0.5"]):
        built = 0
        assert main(argv) == 0
        counts.append(built)
    capsys.readouterr()
    assert counts == [13, 0, 0]


def test_reused_parser_survives_errors(capsys):
    """A usage error and a handler error leave the shared parser as it was."""
    with pytest.raises(SystemExit) as err:
        main(["eval", "hermite"])  # missing --n
    assert err.value.code == 2
    code, out, err_text = run_cli(capsys, "sum", "even-hermite", "--t=-1/4", "--x", "0")
    assert code == 1 and out == "" and "SingularityError" in err_text
    for argv, digest in PINNED_OUTPUTS:
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_json_body_is_pinned(capsys):
    """Every record of the verdict stays byte-identical; only the timestamp may change."""
    assert main(["verify", "--output", "json"]) == 0
    body = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "c4843b695837e7eab843e948f31bad1278d2c1937eb7d8e9f6c8343e5205af52"
    )


@pytest.mark.parametrize("argv, digest", [
    ("verify --output csv", "92d0709bd07899c96a1388348b076051c52333fff796a745ec7edbaa11ccd337"),
    ("verify", "baa0301f5126ac2e586f8ea4680ddbdb6b3768879cecde4f82f19adc851d5929"),
])
def test_verify_csv_and_text_are_pinned(capsys, argv, digest):
    """The CSV and text verdicts carry no timestamp, so every byte stays as it was."""
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _canonical_strings():
    """Canonical strings of every exact route, seeded WeylOp arithmetic and the Taylor oracle."""
    for n in range(26):
        for route in (polyfam.hermite_recurrence(n)[n], polyfam.hermite_rodrigues(n),
                      polyfam.hermite_operator(n)):
            yield str(route)
    for alpha in (0, 1, 2, 5, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(-1, 2)):
        family = polyfam.laguerre_recurrence(20, alpha)
        for n in range(21):
            yield str(family[n])
            yield str(polyfam.laguerre_operator(n, alpha))
            yield str(polyfam.laguerre_explicit(n, alpha))
    rng = random.Random(7)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def op():
        return WeylOp({(rng.randint(0, 3), rng.randint(0, 3)): GaussRational(frac(), frac())
                       for _ in range(rng.randint(1, 4))})

    for _ in range(12):
        a, b = op(), op()
        yield str(a * b)
        yield str(commutator(a, b) * frac())
        yield str(a - b * GaussRational(frac(), frac()))
    for a, b in ((WeylOp({(2, 0): 1}), WeylOp({(0, 1): 1})),
                 (WeylOp({(2, 0): 1}), xp_plus_px), (xp_plus_px, WeylOp({(0, 2): 1}))):
        for xi in (1, Fraction(-2, 3), GaussRational(Fraction(1, 2), 1)):
            res = hadamard_conjugate(a, b, xi)
            yield str(res.result) if isinstance(res, Terminated) else f"{res.eigenvalue} {res.op}"
    for q in (UniPoly.one(), UniPoly.x(), UniPoly.monomial(2)):
        yield str(exp_taylor_apply(EVEN_HERMITE_EXPONENT, 0.02, q, 30))


def test_canonical_strings_are_pinned():
    text = "\n".join(_canonical_strings())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36e6b15b41e85af6bc483ee3b754c29127b484047eb785758be962c8af7c4714"
    )


def test_eval_hermite(capsys):
    code, out, _ = run_cli(capsys, "eval", "hermite", "--n", "2")
    assert code == 0
    assert out == "4*x^2 - 2"


def test_eval_hermite_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "hermite", "--n", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "8*x^3 - 12*x"
    assert payload["coefficients"] == ["0", "-12", "0", "8"]


def test_eval_laguerre_rational_alpha(capsys):
    code, out, _ = run_cli(capsys, "eval", "laguerre", "--n", "1", "--alpha", "1/2")
    assert code == 0
    assert out == "-x + 3/2"


def test_eval_laguerre_matches_the_recurrence(capsys):
    """eval builds L_n^a by the explicit sum; table runs the recurrence: same text."""
    for alpha in ("0", "-1", "-5", "-7/3", "1/2", "97/99", "9999/10001"):
        family = polyfam.laguerre_recurrence(200, Fraction(alpha))
        for n in (0, 1, 2, 19, 57, 200):
            want = str(family[n])
            assert str(polyfam.laguerre_explicit(n, Fraction(alpha))) == want, (alpha, n)
            if alpha == "9999/10001":  # past the --alpha cap of 10,000
                continue
            code, out, _ = run_cli(capsys, "eval", "laguerre", "--n", str(n), f"--alpha={alpha}")
            assert (code, out) == (0, want), (alpha, n)


def test_eval_laguerre_default_alpha(capsys):
    code, out, _ = run_cli(capsys, "eval", "laguerre", "--n", "2")
    assert code == 0
    assert out == "1/2*x^2 - 2*x + 1"


def test_eval_bessel_trivial(capsys):
    code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "0", "--x", "0")
    assert code == 0
    assert out == "1"


def test_eval_bessel_past_the_series_range(capsys):
    # the series alone printed 0.4043 here
    code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "0", "--x", "40")
    assert code == 0
    assert float(out) == pytest.approx(0.00736689058423729, abs=1e-12)
    code, out, _ = run_cli(capsys, "eval", "bessel", "--n=-3", "--x=-40", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "x", "value"}
    assert payload["value"] == pytest.approx(-0.1261448155058208, abs=1e-12)


def test_eval_bessel_high_order_at_the_smallest_float(capsys):
    code, out, err = run_cli(capsys, "eval", "bessel", "--n", "121", "--x", "5e-324")
    assert (code, out, err) == (0, "0", "")


@pytest.mark.parametrize("argv", [
    ("--t", "10", "--x", "30"),
    ("--t", "11.7", "--x", "1.84", "--N", "1875"),
], ids=["closed_overflows", "partial_is_nan"])
def test_sum_even_hermite_overflow_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, "sum", "even-hermite", *argv)
    assert code == 1
    assert out == "" and "error[DomainError]" in err


def test_eval_bessel_has_no_method_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "bessel", "--n", "0", "--x", "1", "--method", "miller"])
    assert err.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_eval_bessel_miller_huge_x_is_an_error(capsys):
    code, out, err = run_cli(capsys, "eval", "bessel", "--n", "0", "--x", "1e12")
    assert code == 1
    assert out == "" and "error[DomainError]" in err


def test_eval_bessel_order_above_the_limit_is_an_error(capsys):
    # the series used to print 0 here while the same order raised for |x| > 10
    code, out, err = run_cli(capsys, "eval", "bessel", "--n", "100001", "--x", "1")
    assert code == 1
    assert out == "" and "error[DomainError]" in err


def test_eval_bessel_negative_order(capsys):
    code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "-1", "--x", "1.0")
    code2, out2, _ = run_cli(capsys, "eval", "bessel", "--n", "1", "--x", "1.0")
    assert code == code2 == 0
    assert float(out) == -float(out2)


def test_eval_psi(capsys):
    code, out, _ = run_cli(capsys, "eval", "psi", "--n", "0", "--x", "0")
    assert code == 0
    assert float(out) == pytest.approx(0.7511255444649425)


def test_eval_psi_where_the_gaussian_underflows(capsys):
    # e^(-800) underflows; the parent printed 0
    code, out, _ = run_cli(capsys, "eval", "psi", "--n", "2000", "--x", "40")
    assert code == 0
    assert float(out) == pytest.approx(0.10766261188867067, rel=1e-11)


def test_sum_even_hermite(capsys):
    code, out, _ = run_cli(capsys, "sum", "even-hermite", "--t", "1/5", "--x", "0")
    assert code == 0
    assert out.startswith("closed = 0.74535599249992")


def test_sum_even_hermite_partial_json(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "even-hermite", "--t", "0.1", "--x", "1", "--N", "80",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_err"] <= 1e-10


def test_sum_even_hermite_singular(capsys):
    # negative rationals need the --flag=value spelling under argparse
    code, _, err = run_cli(capsys, "sum", "even-hermite", "--t=-1/4", "--x", "0")
    assert code == 1
    assert "SingularityError" in err


@pytest.mark.parametrize("argv", [
    "eval psi --n 3 --x nan", "eval psi --n 3 --x inf", "eval psi --n 3 --x=-inf",
    "sum even-hermite --t 0.1 --x inf --N 5", "sum even-hermite --t 0.1 --x nan",
])
def test_non_finite_x_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert "DomainError" in err and "x must be finite" in err


def test_disentangle_closed(capsys):
    code, out, _ = run_cli(capsys, "disentangle", "--t", "1/4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f = 0.5"
    assert lines[1].startswith("g = -0.34657359027997")
    assert lines[2] == "h = -0.125"


def test_disentangle_custom_exponent(capsys):
    code, out, _ = run_cli(
        capsys, "disentangle", "--t", "0.5", "--alpha", "0", "--beta", "0", "--gamma", "1",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "rk4"
    assert payload["f"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert payload["h"]["re"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("t", ["0", "0.1"])
def test_disentangle_zero_steps_is_an_error(capsys, t):
    code, out, err = run_cli(capsys, "disentangle", "--t", t, "--alpha", "1", "--steps", "0")
    assert code == 1 and out == ""
    assert "error[DomainError]: steps must be >= 1" in err


@pytest.mark.parametrize("argv", [
    "disentangle --t 0.1 --alpha nan", "disentangle --t 0.1 --beta nan",
    "disentangle --t 0.1 --gamma=-nan",
])
def test_non_finite_coefficient_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert "error[DomainError]" in err and "must be finite" in err


CAPPED_FLAGS = [
    ("eval hermite --n", cli.MAX_DEGREE), ("eval laguerre --n", cli.MAX_DEGREE),
    ("table hermite --n-max", cli.MAX_DEGREE), ("table laguerre --n-max", cli.MAX_DEGREE),
    ("disentangle --t 0.1 --alpha 1 --steps", cli.MAX_STEPS),
    ("eval psi --x 1 --n", cli.MAX_STEPS), ("sum even-hermite --t 0.1 --x 1 --N", cli.MAX_STEPS),
    ("eval laguerre --n 2 --alpha", cli.MAX_ALPHA_TERM),
    ("table laguerre --n-max 2 --alpha", cli.MAX_ALPHA_TERM),
]


@pytest.mark.parametrize("prefix, cap", CAPPED_FLAGS)
def test_flag_above_its_cap_is_a_usage_error(capsys, prefix, cap):
    assert cli._build_parser().parse_args(f"{prefix} {cap}".split())
    with pytest.raises(SystemExit) as err:
        main(f"{prefix} {cap + 1}".split())
    assert err.value.code == 2
    assert f"expected at most {cap}, got {cap + 1}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(prefix.split("--")[0].split() + ["--help"])
    assert f"at most {cap:,}" in " ".join(capsys.readouterr().out.split())


def test_degree_at_the_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "eval", "hermite", "--n", str(cli.MAX_DEGREE))
    assert code == 0 and out.startswith(f"{2 ** cli.MAX_DEGREE}*x^{cli.MAX_DEGREE}")


def test_float_recurrences_at_the_cap_run(capsys):
    code, out, _ = run_cli(capsys, "eval", "psi", "--n", str(cli.MAX_STEPS), "--x", "1")
    assert code == 0 and abs(float(out)) <= 1.0
    code, out, _ = run_cli(capsys, "sum", "even-hermite", "--t", "0.1", "--x", "1",
                           "--N", str(cli.MAX_STEPS), "--output", "json")
    assert code == 0 and json.loads(out)["abs_err"] <= 1e-14


def test_disentangle_complex_flag_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "disentangle", "--t", "0.1",
        "--alpha", "4", "--beta=-2i", "--gamma=-1", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f"]["re"] == pytest.approx(2.0 / 7.0, abs=1e-10)


def test_verify_filter_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "bessel_*", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["fail"] == 0
    assert all(c["name"].startswith("bessel_") for c in report["checks"])
    assert all(c["pass"] for c in report["checks"])


def test_verify_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "algebra_*")
    assert code == 0
    assert "PASS" in out and "checks passed" in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "disentangle_*", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "pass", "exact", "abs_err", "tolerance"]
    assert len(rows) > 1


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "weyl_commutator_table", "--output", "json",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["counts"] == {"pass": 1, "fail": 0}


def test_verify_ignores_config_file_variable(capsys, tmp_path, monkeypatch):
    """--filter and --seed are the only settings of a verify run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": "algebra_binom_integer_match", "seed": 1}))
    monkeypatch.setenv("WEYLFUN_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "verify", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"filter": "*", "seed": 20260801}
    assert [c["name"] for c in report["checks"]] == list(harness.REGISTRY)


def test_table_hermite_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "hermite", "--n-max", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "c0", "c1", "c2", "c3"]
    assert rows[1] == ["0", "1", "0", "0", "0"]
    assert rows[4] == ["3", "0", "-12", "0", "8"]


def test_table_laguerre_text(capsys):
    code, out, _ = run_cli(capsys, "table", "laguerre", "--n-max", "1", "--alpha", "1")
    assert code == 0
    assert out.splitlines() == ["L_0^(1) = 1", "L_1^(1) = -x + 2"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["eval", "hermite"])  # missing --n
    assert err.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_bad_rational_flag():
    with pytest.raises(SystemExit) as err:
        main(["eval", "laguerre", "--n", "1", "--alpha", "x/y"])
    assert err.value.code == 2


def test_write_failure_reports_path(capsys):
    code, _, err = run_cli(
        capsys, "table", "hermite", "--n-max", "1", "--format", "csv",
        "--out", "/nonexistent-dir/table.csv",
    )
    assert code == 1
    assert "/nonexistent-dir/table.csv" in err
