"""Span and counter tracing of weylfun, installed from outside the package.

The tracer replaces public functions and methods of the weylfun modules
with thin wrappers while a traced round runs and restores the originals
afterwards.  Nothing in ``src/`` changes.

Every wrapper opens a frame on one stack.  When a frame closes, its
duration is charged to its metric (inclusive time, counted only for the
outermost frame of that metric so recursion is not double counted), its
self time (duration minus the time of its child frames) is charged to the
metric's self time, and its duration is added to the child time of the
frame below.  Frames of the coarse functions are also kept as span records
(name, parent record, start, end) in memory until the worker ends.

The scalar methods of ``GaussRational`` run millions of times per round, so
they open no frame: they only count calls and time, and charge that time to
the enclosing frame.  They call no other wrapped function, which is what
makes that safe.
"""

from __future__ import annotations

import contextlib
import functools
from fractions import Fraction
from time import perf_counter

# Span records kept per worker; beyond this many only the aggregates grow.
MAX_SPAN_RECORDS = 200_000


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.incl: dict = {}
        self.self_s: dict = {}
        self.extra: dict = {}  # plain counters (node counts, RK4 steps)
        self.records: list = []
        self.dropped = 0
        self._stack = [[None, 0.0, -1]]  # [metric, child seconds, record index]
        self._depth: dict = {}
        self._patches: list = []

    # ------------------------------------------------------------ wrappers

    def _enter(self, metric, record):
        idx = -1
        if record:
            if len(self.records) < MAX_SPAN_RECORDS:
                idx = len(self.records)
                self.records.append([metric, self._stack[-1][2], perf_counter(), 0.0])
            else:
                self.dropped += 1
        frame = [metric, 0.0, idx]
        self._stack.append(frame)
        self._depth[metric] = self._depth.get(metric, 0) + 1
        return frame

    def _exit(self, frame, dur):
        metric = frame[0]
        self._stack.pop()
        depth = self._depth[metric] - 1
        self._depth[metric] = depth
        self.calls[metric] = self.calls.get(metric, 0) + 1
        if depth == 0:
            self.incl[metric] = self.incl.get(metric, 0.0) + dur
        self.self_s[metric] = self.self_s.get(metric, 0.0) + dur - frame[1]
        self._stack[-1][1] += dur
        if frame[2] >= 0:
            self.records[frame[2]][3] = perf_counter()

    def span(self, fn, metric, record=True, choose=None):
        """Wrap fn in a frame; choose(args) may pick the metric per call."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(choose(args) if choose else metric, record)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, perf_counter() - t0)

        return wrapper

    def gen_span(self, fn, metric, count=None):
        """Wrap a generator function: one frame per resumption, never held across a yield."""
        enter, exit_ = self._enter, self._exit
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                frame = enter(metric, False)
                t0 = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(frame, perf_counter() - t0)
                if count and not first:
                    extra[count] = extra.get(count, 0) + 1
                first = False
                yield value

        return wrapper

    def hot(self, fn, metric):
        """Count calls and time of a leaf method without opening a frame."""
        calls, incl, self_s, stack = self.calls, self.incl, self.self_s, self._stack
        calls.setdefault(metric, 0)
        incl.setdefault(metric, 0.0)
        self_s.setdefault(metric, 0.0)

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            dur = perf_counter() - t0
            calls[metric] += 1
            incl[metric] += dur
            self_s[metric] += dur
            stack[-1][1] += dur
            return out

        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def count_arg(self, fn, counter, pick):
        """Add pick(args, kwargs) to a plain counter on every call, no timing."""
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra[counter] = extra.get(counter, 0) + pick(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def op(self, name):
        """Root frame for one benchmark operation (benchmark glue)."""
        frame = self._enter(name, True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, perf_counter() - t0)

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr, wrapper):
        """Set owner.attr (or owner[attr] for a dict) to wrapper until restore()."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
            return
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_function(self, modules, module, attr, make):
        """Replace module.attr and every `from module import attr` copy in modules."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every weylfun module."""
    from weylfun import algebra, bessel, cli, disentangle, harness, polyfam, weyl

    mods = [algebra, weyl, polyfam, bessel, disentangle, harness, cli]
    span, hot, pf = tracer.span, tracer.hot, tracer.patch_function
    exact_types = (algebra.GaussRational, int, Fraction)
    wo = weyl.WeylOp

    def eval_metric(args):
        exact = isinstance(args[1], exact_types)
        return "algebra.eval_exact" if exact else "algebra.eval_float"

    def mul_metric(args):
        return "weyl.product" if isinstance(args[1], wo) else "weyl.scale"

    # algebra: leaf scalar methods are counted, polynomial methods framed
    gr = algebra.GaussRational
    for attr, metric in (
        ("__add__", "algebra.gauss_add"),
        ("__radd__", "algebra.gauss_add"),
        ("__sub__", "algebra.gauss_add"),
        ("__neg__", "algebra.gauss_neg"),
        ("__mul__", "algebra.gauss_mul"),
        ("__rmul__", "algebra.gauss_mul"),
        ("__truediv__", "algebra.gauss_div"),
    ):
        tracer.patch(gr, attr, hot(gr.__dict__[attr], metric))
    up = algebra.UniPoly
    for attr, metric in (
        ("__mul__", "algebra.unipoly_mul"),
        ("__rmul__", "algebra.unipoly_mul"),
        ("__init__", "algebra.unipoly_build"),
        ("__add__", "algebra.unipoly_add"),
        ("__sub__", "algebra.unipoly_add"),
        ("__neg__", "algebra.unipoly_add"),
        ("derivative", "algebra.unipoly_derivative"),
        ("shift", "algebra.unipoly_derivative"),
    ):
        tracer.patch(up, attr, span(up.__dict__[attr], metric, record=False))
    tracer.patch(up, "evaluate", span(up.__dict__["evaluate"], None, False, eval_metric))
    sp = algebra.ShiftedPoly
    for attr in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        tracer.patch(sp, attr, span(sp.__dict__[attr], "algebra.shifted", record=False))
    pf(mods, algebra, "format_poly", lambda f: span(f, "algebra.format"))
    pf(mods, algebra, "shifted_derivative", lambda f: span(f, "algebra.shifted", record=False))
    pf(mods, algebra, "binom_shifted", lambda f: span(f, "algebra.binom", record=False))

    # weyl
    tracer.patch(wo, "__mul__", span(wo.__dict__["__mul__"], None, False, mul_metric))
    tracer.patch(wo, "__rmul__", span(wo.__dict__["__rmul__"], "weyl.scale", record=False))
    for attr in ("__init__", "__add__", "__sub__", "__neg__", "__pow__"):
        tracer.patch(wo, attr, span(wo.__dict__[attr], "weyl.arith", record=False))
    for attr, metric in (
        ("apply_to_poly", "weyl.apply"),
        ("hadamard_conjugate", "weyl.conjugate"),
        ("apply_exp_taylor", "weyl.exp_taylor"),
        ("commutator", "weyl.commutator"),
        ("central_bch_prefactor", "weyl.bch"),
    ):
        pf(mods, weyl, attr, lambda f, m=metric: span(f, m))

    # polyfam
    for attr, metric in (
        ("hermite_recurrence", "polyfam.hermite_recurrence"),
        ("hermite_rodrigues", "polyfam.hermite_rodrigues"),
        ("hermite_operator", "polyfam.hermite_operator"),
        ("laguerre_recurrence", "polyfam.laguerre_recurrence"),
        ("laguerre_operator", "polyfam.laguerre_operator"),
        ("laguerre_explicit", "polyfam.laguerre_explicit"),
        ("psi_eval", "polyfam.psi"),
        ("psi_derivative", "polyfam.psi"),
        ("hermite_genfun_partial", "polyfam.genfun"),
        ("even_hermite_partial", "polyfam.genfun"),
        ("laguerre_genfun_partial", "polyfam.genfun"),
        ("even_hermite_closed", "polyfam.closed"),
        ("hermite_expand", "polyfam.expand"),
        ("hermite_ode_residual", "polyfam.residual"),
        ("hermite_addition_check", "polyfam.addition"),
    ):
        pf(mods, polyfam, attr, lambda f, m=metric: span(f, m))

    # bessel
    for attr, metric in (
        ("j_series", "bessel.series"),
        ("j_signed", "bessel.signed"),
        ("j_miller", "bessel.miller"),
        ("j_integral_auto", "bessel.integral"),
        ("j_derivative_m", "bessel.identity"),
        ("j_addition", "bessel.identity"),
        ("jacobi_anger_partial", "bessel.identity"),
        ("j_genfun_partial", "bessel.identity"),
        ("j_translate_partial", "bessel.identity"),
        ("j_ode_residual", "bessel.identity"),
    ):
        pf(mods, bessel, attr, lambda f, m=metric: span(f, m, record=(m != "bessel.series")))
    nodes = lambda a, k: a[2] if len(a) > 2 else k["quad_nodes"]  # noqa: E731
    pf(mods, bessel, "j_integral",
       lambda f: tracer.count_arg(span(f, "bessel.integral"), "bessel.integral_nodes", nodes))

    # disentangle
    pf(mods, disentangle, "disentangle_ode_trajectory",
       lambda f: tracer.gen_span(f, "disentangle.ode", count="disentangle.rk4_steps"))
    for attr, metric in (
        ("disentangle_ode", "disentangle.ode"),
        ("apply_factored", "disentangle.apply_factored"),
        ("exp_taylor_apply", "disentangle.taylor"),
        ("disentangle_closed", "disentangle.closed"),
        ("even_hermite_via_disentangle", "disentangle.closed"),
    ):
        pf(mods, disentangle, attr, lambda f, m=metric: span(f, m))
    eq = disentangle.ExpQuadPoly
    tracer.patch(eq, "value_at", span(eq.__dict__["value_at"], "disentangle.apply_factored"))

    # harness: every registered check, the runner and the serializer
    for name, fn in list(harness.REGISTRY.items()):
        tracer.patch(harness.REGISTRY, name, span(fn, f"harness.check.{name}"))
    pf(mods, harness, "run_suite", lambda f: span(f, "harness.run_suite"))
    pf(mods, harness, "report_serialize", lambda f: span(f, "harness.serialize"))

    # cli
    pf(mods, cli, "main", lambda f: span(f, "cli.main"))

