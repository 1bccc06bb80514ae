"""The names that perfbench/ reaches in weylfun still exist and still work.

The benchmark wraps package functions and methods from outside
(``tracer.install``) and encodes results through their attributes
(``worker.prepare``).  Removing or renaming one of those names passes every
other test but breaks ``perfbench/run.py``.  These tests use perfbench/
read-only: they import its modules and run one traced round of each
operation workload the way the worker does.
"""

import random
import sys
from pathlib import Path

import pytest

from weylfun import harness, polyfam
from weylfun.algebra import UniPoly

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH_DIR)
    try:
        import tracer
        import worker
        import workloads

        yield tracer, worker, workloads
    finally:
        sys.path.remove(BENCH_DIR)


def _run_round(tr, worker, ops):
    """Prepare, call and encode each op as worker._serve does; return the errors."""
    errors = []
    for op in ops:
        call, enc = worker.prepare(op)
        with tr.op("bench.op"):
            try:
                out = call()
            except Exception as exc:  # the worker records a failing call as data
                errors.append((op[0], f"{type(exc).__name__}: {exc}"))
                continue
        enc(out)
    return errors


@pytest.mark.parametrize("maker", ["exact_rounds", "numeric_rounds"])
def test_traced_round_runs_and_restores(bench, maker):
    tracer, worker, workloads = bench
    originals = (UniPoly.__mul__, polyfam.hermite_recurrence, dict(harness.REGISTRY))
    ops = getattr(workloads, maker)(random.Random(11))()
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        errors = _run_round(tr, worker, ops)
        polyfam._hermite_upto.cache_info()  # the worker reads it after every traced round
    finally:
        tr.restore()
    assert errors == []
    assert tr.calls.get("bench.op") == len(ops)
    assert (UniPoly.__mul__, polyfam.hermite_recurrence, harness.REGISTRY) == originals


def test_traced_registry_still_reports(bench):
    tracer = bench[0]
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        report = harness.run_suite("weyl_commutator_table")
    finally:
        tr.restore()
    assert [c["name"] for c in report["checks"]] == ["weyl_commutator_table"]
    assert tr.calls.get("harness.check.weyl_commutator_table") == 1
