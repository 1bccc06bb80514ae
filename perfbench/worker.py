"""The one process that runs weylfun operations for the benchmark.

It loads weylfun from the checkout's ``src/`` and nothing else that is not
standard library (never mpmath: the reference code stays in the parent).
Requests and replies are JSON lines on stdin/stdout.

Modes:
  ready           import weylfun.cli, report, exit (set-up timing)
  serve           run rounds of operations sent by the parent
  sweep [trace]   run ``weylfun verify`` once through the CLI entry point,
                  timing each registered check as one operation

Inputs are built before the clock starts and outputs are serialized after
it stops, so each timed section holds exactly one call into weylfun.
"""

import sys
import time

_T0 = time.perf_counter()
import weylfun.cli  # noqa: E402  (the import is what set-up time measures)

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402  (the worker's own directory is first on sys.path)
from weylfun import bessel, disentangle, harness, polyfam, weyl  # noqa: E402
from weylfun.algebra import GaussRational, UniPoly  # noqa: E402

_PROTO = sys.stdout


def _send(obj) -> None:
    _PROTO.write(json.dumps(obj) + "\n")
    _PROTO.flush()


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------- input decoding

def _gauss(re, im) -> GaussRational:
    return GaussRational(Fraction(re), Fraction(im))


def _poly(terms) -> UniPoly:
    return UniPoly({k: _gauss(re, im) for k, re, im in terms})


def _op(terms) -> weyl.WeylOp:
    return weyl.WeylOp({(j, k): _gauss(re, im) for j, k, re, im in terms})


def _quad(abc) -> disentangle.QuadExponent:
    return disentangle.QuadExponent(*(complex(re, im) for re, im in abc))


# ------------------------------------------------------ output encoding

def _enc_poly(p: UniPoly):
    return [[k, str(c.re), str(c.im)] for k, c in p.terms()]


def _enc_op(w: weyl.WeylOp):
    return [[j, k, str(c.re), str(c.im)] for (j, k), c in w.terms()]


def _enc_c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _enc_family(fam):
    return [_enc_poly(p) for p in fam.polys]


def _enc_conj(res):
    if isinstance(res, weyl.Terminated):
        return ["terminated", _enc_op(res.result)]
    return ["eigen", [str(res.eigenvalue.re), str(res.eigenvalue.im)], _enc_op(res.op)]


def _cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = weylfun.cli.main(argv)
    return [code, buf.getvalue()]


def _apply_factored(t, q, x):
    form = disentangle.disentangle_closed(t)
    return disentangle.apply_factored(form, q).value_at(x)


def _ident(v):
    return v


def prepare(op):
    """Return (call, encode) for one operation; inputs are built here, untimed."""
    kind, args = op[0], op[1:]
    if kind == "hermite_recurrence":
        return (lambda: polyfam.hermite_recurrence(args[0])), _enc_family
    if kind == "hermite_rodrigues":
        return (lambda: polyfam.hermite_rodrigues(args[0])), _enc_poly
    if kind == "hermite_operator":
        return (lambda: polyfam.hermite_operator(args[0])), _enc_poly
    if kind in ("laguerre_recurrence", "laguerre_operator", "laguerre_explicit"):
        n, a = args[0], Fraction(args[1])
        fn = getattr(polyfam, kind)
        enc = _enc_family if kind == "laguerre_recurrence" else _enc_poly
        return (lambda: fn(n, a)), enc
    if kind == "weyl_product":
        a, b = _op(args[0]), _op(args[1])
        return (lambda: a * b), _enc_op
    if kind == "commutator":
        a, b = _op(args[0]), _op(args[1])
        return (lambda: weyl.commutator(a, b)), _enc_op
    if kind == "hadamard":
        a, b, xi = _op(args[0]), _op(args[1]), _gauss(*args[2])
        return (lambda: weyl.hadamard_conjugate(a, b, xi)), _enc_conj
    if kind == "exp_taylor":
        q_exp, t, q, order = _quad(args[0]), args[1], _poly(args[2]), args[3]
        return (lambda: disentangle.exp_taylor_apply(q_exp, t, q, order)), _enc_poly
    if kind == "cli":
        argv = list(args[0])
        return (lambda: _cli_call(argv)), _ident
    if kind == "j_signed":
        return (lambda: bessel.j_signed(args[0], args[1])), _ident
    if kind == "j_miller":
        return (lambda: bessel.j_miller(args[0], args[1])), _ident
    if kind == "j_integral_auto":
        return (lambda: bessel.j_integral_auto(args[0], args[1])), _ident
    if kind == "j_addition":
        return (lambda: bessel.j_addition(*args)), _ident
    if kind == "jacobi_anger":
        return (lambda: bessel.jacobi_anger_partial(*args)), lambda r: [_enc_c(r[0]), _enc_c(r[1])]
    if kind == "j_genfun":
        return (lambda: bessel.j_genfun_partial(*args)), _ident
    if kind == "j_translate":
        return (lambda: bessel.j_translate_partial(*args)), _ident
    if kind in ("psi_eval", "psi_derivative", "even_hermite_partial", "hermite_genfun_partial"):
        fn = getattr(polyfam, kind)
        return (lambda: fn(*args)), _enc_c
    if kind == "laguerre_genfun_partial":
        t, x, a, n_terms = args[0], args[1], Fraction(args[2]), args[3]
        return (lambda: polyfam.laguerre_genfun_partial(t, x, a, n_terms)), _enc_c
    if kind == "disentangle_ode":
        q_exp, t_end, steps = _quad(args[0]), args[1], args[2]
        return (
            (lambda: disentangle.disentangle_ode(q_exp, t_end, steps)),
            lambda f: [_enc_c(f.f), _enc_c(f.g), _enc_c(f.h)],
        )
    if kind == "apply_factored":
        t, q, x = args[0], _poly(args[1]), args[2]
        return (lambda: _apply_factored(t, q, x)), _enc_c
    raise ValueError(f"unknown operation kind {kind!r}")


# ------------------------------------------------------------- tracing

def _trace_summary(tr, builds):
    return {
        "calls": tr.calls,
        "incl": tr.incl,
        "self": tr.self_s,
        "extra": dict(tr.extra, **{"polyfam.hermite_builds": builds}),
        "records": len(tr.records),
        "dropped": tr.dropped,
    }


def _write_spans(tr, path):
    if not path or not tr.records:
        return
    t_base = tr.records[0][2]
    with open(path, "w") as fh:
        for i, (name, parent, start, end) in enumerate(tr.records):
            fh.write(json.dumps([i, name, parent, start - t_base, end - t_base]) + "\n")


def _serve(span_path):
    tr = None
    builds = 0
    _send({"ready": True, "import_s": IMPORT_S})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("stop"):
            break
        traced = req.get("trace", False)
        if traced:
            import tracer

            if tr is None:
                tr = tracer.Tracer()
            tracer.install(tr)
            misses0 = polyfam._hermite_upto.cache_info().misses
        times, results = [], []
        cal_before = calibrate.measure()
        for op in req["ops"]:
            call, enc = prepare(op)
            frame = tr.op("bench.op") if traced else contextlib.nullcontext()
            err = None
            with frame:
                t0 = perf_counter()
                try:
                    out = call()
                except Exception as exc:  # a failing operation is data, not a crash
                    err = f"{type(exc).__name__}: {exc}"
                t1 = perf_counter()
            times.append(t1 - t0)
            results.append({"error": err} if err else {"value": enc(out)})
        cal_after = calibrate.measure()
        if traced:
            tr.restore()
            builds += polyfam._hermite_upto.cache_info().misses - misses0
        _send({"times": times, "calib": [cal_before, cal_after], "results": results,
               "rss_kb": _rss_kb()})
    final = {"rss_kb": _rss_kb(), "mpmath_loaded": "mpmath" in sys.modules}
    if tr is not None:
        final["trace"] = _trace_summary(tr, builds)
        _write_spans(tr, span_path)
    _send(final)


def _sweep(traced, span_path):
    tr = None
    if traced:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        misses0 = polyfam._hermite_upto.cache_info().misses
    times = []
    calib = [calibrate.measure()]  # calib[i], calib[i + 1] bracket check i
    for name, fn in list(harness.REGISTRY.items()):
        def timed(cfg, _fn=fn, _name=name):
            t0 = perf_counter()
            try:
                return _fn(cfg)
            finally:
                times.append([_name, perf_counter() - t0])
                calib.append(calibrate.measure())

        harness.REGISTRY[name] = timed
    buf = io.StringIO()
    sys.argv = ["weylfun", "verify", "--output", "json"]
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            weylfun.cli.entry()
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing sweep is reported, and fails its checks
            traceback.print_exc()
            code = "exception"
    sweep_s = perf_counter() - t0
    reply = {
        "times": times,
        "calib": calib,
        "code": code,
        "stdout": buf.getvalue(),
        "sweep_s": sweep_s,
        "import_s": IMPORT_S,
        "rss_kb": _rss_kb(),
        "mpmath_loaded": "mpmath" in sys.modules,
    }
    if tr is not None:
        tr.restore()
        builds = polyfam._hermite_upto.cache_info().misses - misses0
        reply["trace"] = _trace_summary(tr, builds)
        _write_spans(tr, span_path)
    _send(reply)


def main(argv):
    mode = argv[0] if argv else ""
    span_path = argv[2] if len(argv) > 2 else None
    if mode == "ready":
        _send({"ready": True, "import_s": IMPORT_S})
    elif mode == "serve":
        _serve(argv[1] if len(argv) > 1 else None)
    elif mode == "sweep":
        _sweep(len(argv) > 1 and argv[1] == "trace", span_path)
    else:
        print(f"usage: worker.py ready|serve [SPANS]|sweep plain|trace [SPANS]", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
