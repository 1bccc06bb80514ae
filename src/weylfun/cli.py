"""Command-line front end: evaluation, identity verification, table emission.

Numeric flags where exactness matters (alpha, t) accept both decimal and
rational p/q syntax.  A verify run is configured by --filter and --seed alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from functools import cache, partial

from . import bessel, disentangle, harness, polyfam
from .algebra import format_poly
from .errors import WeylfunError

# Caps on the flags whose cost grows without bound.  At the cap the costliest
# form takes ~1.3 s and 88 MB (table laguerre --alpha=97/99 --format json),
# ~4.2 s and 16 MB (disentangle --steps), ~0.6 s (eval psi --n) and ~1.5 s
# (sum even-hermite --N) on a 2-vCPU Xeon VM.  Each Laguerre coefficient
# carries alpha's p and q: --alpha=9999/10000 takes ~2.0 s and 131 MB.
MAX_DEGREE = 200
MAX_STEPS = 1_000_000
MAX_ALPHA_TERM = 10_000


def _fraction_flag(text: str, limit: int | None = None) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a number or p/q ratio, got {text!r}") from exc
    big = max(abs(value.numerator), value.denominator)
    if limit is not None and big > limit:
        raise argparse.ArgumentTypeError(f"|p| and q of p/q: expected at most {limit}, got {big}")
    return value


def _complex_flag(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a (complex) number, got {text!r}") from exc


def _nonneg_int(text: str, limit: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"expected at most {limit}, got {value}")
    return value


_degree = partial(_nonneg_int, limit=MAX_DEGREE)
_steps = partial(_nonneg_int, limit=MAX_STEPS)
_alpha = partial(_fraction_flag, limit=MAX_ALPHA_TERM)
_ALPHA_HELP = f"order alpha, decimal or p/q (default 0), |p| and q at most {MAX_ALPHA_TERM:,}"
_NUMBER_AFTER_FLAG = re.compile(r"-\.?\d")  # argparse's own pattern misses -1e-5, -2i and -1/4


@cache  # built on the first main() call, never at import; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylfun",
        description="Exact operator-algebra kernel and special-function identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a polynomial family member or Bessel value")
    evsub = ev.add_subparsers(dest="target", required=True)

    ev_h = evsub.add_parser("hermite", help="print H_n as an exact polynomial")
    ev_h.add_argument("--n", type=_degree, required=True,
                      help=f"degree n >= 0, at most {MAX_DEGREE}")
    _output_flags(ev_h)

    ev_l = evsub.add_parser("laguerre", help="print L_n^alpha as an exact polynomial")
    ev_l.add_argument("--n", type=_degree, required=True,
                      help=f"degree n >= 0, at most {MAX_DEGREE}")
    ev_l.add_argument("--alpha", type=_alpha, default=Fraction(0), help=_ALPHA_HELP)
    _output_flags(ev_l)

    ev_b = evsub.add_parser("bessel", help="evaluate J_n(x)")
    ev_b.add_argument("--n", type=int, required=True, help="integer order (any sign)")
    ev_b.add_argument("--x", type=float, required=True,
                      help="series for |x| <= 10, Miller recurrence beyond")
    _output_flags(ev_b)

    ev_p = evsub.add_parser("psi", help="evaluate the normalized oscillator function psi_n(x)")
    ev_p.add_argument("--n", type=_steps, required=True, help=f"n >= 0, at most {MAX_STEPS:,}")
    ev_p.add_argument("--x", type=float, required=True)
    _output_flags(ev_p)

    sm = sub.add_parser("sum", help="evaluate a summed series")
    smsub = sm.add_subparsers(dest="target", required=True)
    sm_e = smsub.add_parser("even-hermite", help="sum_n t^n/n! H_2n(x), closed form and partial sum")
    sm_e.add_argument("--t", type=_fraction_flag, required=True,
                      help="series variable, decimal or p/q; closed form needs t > -1/4")
    sm_e.add_argument("--x", type=float, required=True)
    sm_e.add_argument("--N", dest="n_terms", type=_steps, default=None,
                      help=f"also report the partial sum with N+1 terms, N at most {MAX_STEPS:,}")
    _output_flags(sm_e)

    ds = sub.add_parser(
        "disentangle",
        help="factor exp{t(a x^2 + b(xp+px) + c p^2)} into exp(f x^2) exp(g(xp+px)) exp(h p^2)",
    )
    ds.add_argument("--t", type=_fraction_flag, required=True)
    ds.add_argument("--alpha", type=_complex_flag, default=None, help="coefficient of x^2")
    ds.add_argument("--beta", type=_complex_flag, default=None,
                    help="coefficient of xp+px (accepts forms like -2i)")
    ds.add_argument("--gamma", type=_complex_flag, default=None, help="coefficient of p^2")
    ds.add_argument("--steps", type=_steps, default=10_000,
                    help=f"RK4 steps (custom exponent), at most {MAX_STEPS:,}")
    _output_flags(ds)

    vf = sub.add_parser("verify", help="run the identity check registry and report")
    vf.add_argument("--filter", default="*", help="fnmatch pattern over check names")
    vf.add_argument("--seed", type=int, default=harness.SEED,
                    help="seed for randomized exact checks")
    _output_flags(vf, formats=("text", "json", "csv"))

    tb = sub.add_parser("table", help="emit a polynomial family table")
    tbsub = tb.add_subparsers(dest="target", required=True)
    tb_h = tbsub.add_parser("hermite")
    tb_h.add_argument("--n-max", dest="n_max", type=_degree, required=True,
                      help=f"largest degree, at most {MAX_DEGREE}")
    _output_flags(tb_h, ("text", "csv", "json"), "--format")
    tb_l = tbsub.add_parser("laguerre")
    tb_l.add_argument("--n-max", dest="n_max", type=_degree, required=True,
                      help=f"largest degree, at most {MAX_DEGREE}")
    tb_l.add_argument("--alpha", type=_alpha, default=Fraction(0), help=_ALPHA_HELP)
    _output_flags(tb_l, ("text", "csv", "json"), "--format")

    return parser


def _output_flags(p, formats=("text", "json"), flag="--output"):
    p._negative_number_matcher = _NUMBER_AFTER_FLAG  # every leaf command: --x -1e-5 is x = -1e-5
    p.add_argument(flag, dest="output", choices=formats, default="text", help="output format")
    p.add_argument("--out", dest="out_path", default=None, help="write output to FILE")


def _fmt_float(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt_float(z.real)
    imag = f"{_fmt_float(abs(z.imag))}i"
    if z.real == 0.0:
        return ("-" if z.imag < 0 else "") + imag
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_float(z.real)}{sign}{imag}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise WeylfunError(f"cannot write {out_path!r}: {exc}") from exc


def _poly_payload(n: int, poly) -> dict:
    coeffs = [str(poly.coeff(k)) for k in range(poly.degree + 1)]
    return {"n": n, "polynomial": format_poly(poly), "coefficients": coeffs}


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.target == "hermite":
        payload = _poly_payload(args.n, polyfam.hermite_recurrence(args.n)[args.n])
    elif args.target == "laguerre":
        payload = _poly_payload(args.n, polyfam.laguerre_explicit(args.n, args.alpha))
        payload["alpha"] = str(args.alpha)
    elif args.target == "bessel":
        payload = {"n": args.n, "x": args.x, "value": bessel.j_signed(args.n, args.x)}
    else:  # psi
        payload = {"n": args.n, "x": args.x, "value": polyfam.psi_eval(args.n, args.x).real}
    text = payload["polynomial"] if "polynomial" in payload else _fmt_float(payload["value"])
    _emit(text if args.output == "text" else json.dumps(payload, sort_keys=True), args.out_path)
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    t = float(args.t)
    closed = polyfam.even_hermite_closed(t, args.x)
    payload = {"t": str(args.t), "x": args.x, "closed": closed.real}
    lines = [f"closed = {_fmt_float(closed.real)}"]
    if args.n_terms is not None:
        partial = polyfam.even_hermite_partial(t, args.x, args.n_terms)
        err = abs(partial - closed)
        payload.update({"n_terms": args.n_terms, "partial": partial.real, "abs_err": err})
        lines.append(f"partial[N={args.n_terms}] = {_fmt_float(partial.real)}")
        lines.append(f"abs_err = {err!r}")
    _emit("\n".join(lines) if args.output == "text" else json.dumps(payload, sort_keys=True),
          args.out_path)
    return 0


def _cmd_disentangle(args: argparse.Namespace) -> int:
    t = float(args.t)
    custom = any(v is not None for v in (args.alpha, args.beta, args.gamma))
    if custom:
        base = disentangle.EVEN_HERMITE_EXPONENT
        q = disentangle.QuadExponent(
            complex(args.alpha) if args.alpha is not None else base.a_x2,
            args.beta if args.beta is not None else base.b_mix,
            args.gamma if args.gamma is not None else base.c_p2,
        )
        form = disentangle.disentangle_ode(q, t, args.steps)
        route = "rk4"
    else:
        form = disentangle.disentangle_closed(t)
        route = "closed"
    payload = {
        "t": t,
        "route": route,
        "f": {"re": form.f.real, "im": form.f.imag},
        "g": {"re": form.g.real, "im": form.g.imag},
        "h": {"re": form.h.real, "im": form.h.imag},
    }
    text = "\n".join(
        [f"f = {_fmt_complex(form.f)}", f"g = {_fmt_complex(form.g)}", f"h = {_fmt_complex(form.h)}"]
    )
    _emit(text if args.output == "text" else json.dumps(payload, sort_keys=True), args.out_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = harness.run_suite(args.filter, args.seed)
    counts = report["counts"]
    if args.output == "json":
        text = harness.report_serialize(report).rstrip("\n")
    elif args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        columns = ["name", "pass", "exact", "abs_err", "tolerance"]
        writer.writerow(columns)
        writer.writerows([c[k] for k in columns] for c in report["checks"])
        text = buf.getvalue().rstrip("\n")
    else:
        lines = []
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            tol = "exact" if c["exact"] else f"tol={c['tolerance']!r}"
            lines.append(f"{status}  {c['name']}  abs_err={c['abs_err']!r}  {tol}")
        lines.append(f"{counts['pass']}/{counts['pass'] + counts['fail']} checks passed")
        text = "\n".join(lines)
    _emit(text, args.out_path)
    return 0 if counts["fail"] == 0 else 1


def _cmd_table(args: argparse.Namespace) -> int:
    if args.target == "hermite":
        family = polyfam.hermite_recurrence(args.n_max)
        labels = [f"H_{n}" for n in range(args.n_max + 1)]
    else:
        family = polyfam.laguerre_recurrence(args.n_max, args.alpha)
        labels = [f"L_{n}^({args.alpha})" for n in range(args.n_max + 1)]
    rows = [(n, labels[n], family[n]) for n in range(args.n_max + 1)]
    if args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n"] + [f"c{k}" for k in range(args.n_max + 1)])
        for n, _, poly in rows:
            writer.writerow([n] + [str(poly.coeff(k)) for k in range(args.n_max + 1)])
        text = buf.getvalue().rstrip("\n")
    elif args.output == "json":
        payload = [_poly_payload(n, poly) for n, _, poly in rows]
        text = json.dumps(payload, sort_keys=True)
    else:
        text = "\n".join(f"{label} = {format_poly(poly)}" for _, label, poly in rows)
    _emit(text, args.out_path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "eval": _cmd_eval,
        "sum": _cmd_sum,
        "disentangle": _cmd_disentangle,
        "verify": _cmd_verify,
        "table": _cmd_table,
    }[args.command]
    try:
        return handler(args)
    except (WeylfunError, ValueError, ZeroDivisionError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
