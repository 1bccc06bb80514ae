#!/usr/bin/env python3
"""Benchmark of weylfun: the verify verdict, the exact routes, the float evaluators.

    python3 perfbench/run.py --workload verify|exact_families|numeric_eval \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; weylfun is loaded from its ``src/``.  This
process generates the inputs, starts at most one worker process at a time
(perfbench/worker.py, the only process that runs weylfun), checks every
output against references computed apart from weylfun (perfbench/reference.py)
after the timed rounds, and prints one JSON line as the last line of its
standard output.  With ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  A human-readable
summary goes to standard error and a full record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

WORKLOADS = ("verify", "exact_families", "numeric_eval")
SETUP_STARTS = 10  # fresh interpreters timed per run; setup_s is their median
MIN_ROUNDS = {"verify": 3, "exact_families": 6, "numeric_eval": 6}
VERIFY_CHECKS = 37
WORKER_TIMEOUT_S = 150

# modules with a <module>.self_ms metric; cli's is cli.self_ms, the self time of cli.main
MODULES = ("algebra", "weyl", "polyfam", "bessel", "disentangle", "harness")
CHECK_NAMES = (
    "algebra_ring_axioms", "algebra_leibniz_rule", "algebra_eval_multiplicative",
    "algebra_binom_integer_match", "weyl_commutator_table", "weyl_commutator_antisymmetry",
    "weyl_jacobi_identity", "weyl_action_homomorphism", "weyl_normal_order_confluence",
    "weyl_hadamard_cases", "weyl_hadamard_taylor_check", "weyl_bch_central_prefactor",
    "hermite_triple_equality", "hermite_derivative_relation", "hermite_ode_residual",
    "hermite_addition_formula", "hermite_generating_function", "even_hermite_sum",
    "psi_ladder_relations", "psi_expansion_orthonormality", "laguerre_triple_equality",
    "laguerre_recurrence_residual", "laguerre_generating_function", "bessel_cross_method",
    "bessel_generating_function", "bessel_recurrence_residual", "bessel_bounded_and_parity",
    "bessel_derivative_vs_finite_difference", "bessel_addition", "bessel_jacobi_anger",
    "bessel_translation", "bessel_ode_residual", "disentangle_closed_form_residual",
    "disentangle_rk4_vs_closed", "disentangle_system_specialization",
    "disentangle_operator_equivalence", "disentangle_initial_condition",
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _layer_table():
    """(name, unit, kind, source): kind is calls | ms (inclusive) | self_ms | extra."""
    rows = [
        ("algebra.gauss_mul_calls", "count", "calls", ["algebra.gauss_mul"]),
        ("algebra.gauss_add_calls", "count", "calls", ["algebra.gauss_add"]),
        ("algebra.scalar_self_ms", "ms", "self_ms",
         ["algebra.gauss_add", "algebra.gauss_mul", "algebra.gauss_div", "algebra.gauss_neg"]),
        ("algebra.unipoly_mul_calls", "count", "calls", ["algebra.unipoly_mul"]),
        ("algebra.unipoly_mul_ms", "ms", "ms", ["algebra.unipoly_mul"]),
        ("algebra.eval_exact_ms", "ms", "ms", ["algebra.eval_exact"]),
        ("algebra.eval_float_calls", "count", "calls", ["algebra.eval_float"]),
        ("algebra.eval_float_ms", "ms", "ms", ["algebra.eval_float"]),
        ("algebra.format_ms", "ms", "ms", ["algebra.format"]),
        ("weyl.product_calls", "count", "calls", ["weyl.product"]),
        ("weyl.product_ms", "ms", "ms", ["weyl.product"]),
        ("weyl.apply_ms", "ms", "ms", ["weyl.apply"]),
        ("weyl.conjugate_ms", "ms", "ms", ["weyl.conjugate"]),
        ("weyl.exp_taylor_ms", "ms", "ms", ["weyl.exp_taylor"]),
    ]
    for route in ("hermite_recurrence", "hermite_rodrigues", "hermite_operator",
                  "laguerre_recurrence", "laguerre_operator", "laguerre_explicit"):
        rows.append((f"polyfam.{route}_ms", "ms", "ms", [f"polyfam.{route}"]))
    rows += [
        ("polyfam.hermite_builds", "count", "extra", ["polyfam.hermite_builds"]),
        ("polyfam.psi_ms", "ms", "ms", ["polyfam.psi"]),
        ("polyfam.genfun_ms", "ms", "ms", ["polyfam.genfun"]),
        ("bessel.series_calls", "count", "calls", ["bessel.series"]),
        ("bessel.series_ms", "ms", "ms", ["bessel.series"]),
        ("bessel.miller_ms", "ms", "ms", ["bessel.miller"]),
        ("bessel.integral_ms", "ms", "ms", ["bessel.integral"]),
        ("bessel.integral_nodes", "count", "extra", ["bessel.integral_nodes"]),
        ("bessel.identity_ms", "ms", "ms", ["bessel.identity"]),
        ("disentangle.rk4_steps", "count", "extra", ["disentangle.rk4_steps"]),
        ("disentangle.ode_ms", "ms", "ms", ["disentangle.ode"]),
        ("disentangle.apply_factored_ms", "ms", "ms", ["disentangle.apply_factored"]),
        ("disentangle.taylor_ms", "ms", "ms", ["disentangle.taylor"]),
    ]
    for name in CHECK_NAMES:
        rows.append((f"harness.check.{name}_ms", "ms", "ms", [f"harness.check.{name}"]))
    rows += [
        ("harness.serialize_ms", "ms", "ms", ["harness.serialize"]),
        ("cli.self_ms", "ms", "self_ms", ["cli.main"]),
        ("cli.import_ms", "ms", "import", []),
    ]
    for mod in MODULES:
        rows.append((f"{mod}.self_ms", "ms", "module_self", [mod]))
    rows.append(("trace.overhead_pct", "%", "overhead", []))
    return rows


LAYER_METRICS = _layer_table()


# -------------------------------------------------------------- workers

def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("WEYLFUN_CONFIG", None)  # verify runs its default configuration
    return env


class Worker:
    """One worker process; closed (and waited for) on every exit path."""

    def __init__(self, *args):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_worker_env(),
        )

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early (exit code {self.proc.wait(5)})")
        return json.loads(line)

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure_setup() -> tuple:
    """(seconds from launching a fresh interpreter to weylfun.cli ready, import seconds).

    Not normalized: process start and imports are mostly kernel work and file
    reads, which do not follow the calibration task (scaling added noise).
    """
    t0 = time.perf_counter()
    with Worker("ready") as w:
        msg = w.recv()
        t1 = time.perf_counter()
    return t1 - t0, msg["import_s"]


# ------------------------------------------------------------- workloads

def _spans_path(workload, seed, tag=""):
    RESULTS.mkdir(exist_ok=True)
    return RESULTS / f"spans-{workload}-s{seed}{tag}.jsonl"


def _keep_going(start, seconds, rounds, min_rounds, last_s):
    """Start another round only while it should end near the deadline."""
    if rounds < min_rounds:
        return True
    return time.perf_counter() - start + 0.5 * last_s < seconds


def run_served(workload, seed, seconds, trace, rounds_of, min_rounds):
    from workloads import KNOWN_FAULT_PROBES

    next_round = rounds_of(random.Random(f"{workload}:{seed}"))
    rounds = []
    spans = _spans_path(workload, seed) if trace else ""
    with Worker("serve", spans) as w:
        ready = w.recv()
        start = time.perf_counter()
        last = 0.0
        while _keep_going(start, seconds, len(rounds), min_rounds, last):
            t0 = time.perf_counter()
            ops = next_round()
            traced = trace and len(rounds) % 2 == 0
            w.send({"ops": ops, "trace": traced})
            reply = w.recv()
            factor = calibrate.scale(*reply["calib"])
            reply.update(ops=ops, traced=traced, norm=[t * factor for t in reply["times"]])
            rounds.append(reply)
            last = time.perf_counter() - t0
        w.send({"stop": True})
        final = w.recv()
    probes = [json.dumps(p) for p in KNOWN_FAULT_PROBES]
    for r in rounds:
        r["probe"] = [json.dumps(op) in probes for op in r["ops"]]
    return {
        "rounds": rounds,
        "import_s": [ready["import_s"]],
        "rss_kb": final["rss_kb"],
        "mpmath_loaded": final["mpmath_loaded"],
        "traces": [final["trace"]] if "trace" in final else [],
    }


def run_verify(seed, seconds, trace, min_rounds):
    rounds, imports, rss, traces, mp_loaded = [], [], [], [], False
    start = time.perf_counter()
    last = 0.0
    while _keep_going(start, seconds, len(rounds), min_rounds, last):
        t0 = time.perf_counter()
        traced = trace and len(rounds) % 2 == 0
        spans = _spans_path("verify", seed, f"-{len(rounds)}") if traced else ""
        with Worker("sweep", "trace" if traced else "plain", spans) as w:
            reply = w.recv()
        names = [name for name, _ in reply["times"]]
        cal = reply["calib"]
        rounds.append({
            "ops": names,
            "times": [t for _, t in reply["times"]],
            "norm": [t * calibrate.scale(cal[i], cal[i + 1])
                     for i, (_, t) in enumerate(reply["times"])],
            "code": reply["code"],
            "stdout": reply["stdout"],
            "traced": traced,
            "probe": [False] * len(names),
        })
        imports.append(reply["import_s"])
        rss.append(reply["rss_kb"])
        mp_loaded |= reply["mpmath_loaded"]
        if "trace" in reply:
            traces.append(reply["trace"])
        last = time.perf_counter() - t0
    return {
        "rounds": rounds,
        "import_s": imports,
        "rss_kb": statistics.median(rss),
        "mpmath_loaded": mp_loaded,
        "traces": traces,
    }


# -------------------------------------------------------------- checking

def check_verify_round(r) -> list:
    """Per-check verdicts for one sweep: exit 0, 37 passed, consistent records."""
    try:
        report = json.loads(r["stdout"])
    except json.JSONDecodeError:
        return [False] * len(r["ops"])
    records = report.get("checks", [])
    sweep_ok = (
        r["code"] == 0
        and report["counts"] == {"pass": VERIFY_CHECKS, "fail": 0}
        and len(records) == VERIFY_CHECKS == len(r["ops"])
        and [c["name"] for c in records] == r["ops"]
    )
    verdicts = []
    for i in range(len(r["ops"])):
        ok = sweep_ok
        if ok:
            c = records[i]
            err, tol = c["abs_err"], c["tolerance"]
            ok = math.isfinite(err) and c["pass"] and c["pass"] == (err <= tol)
        verdicts.append(ok)
    return verdicts


def check_rounds(workload, result) -> tuple:
    """(attempted, failed, correct, messages) over every round of the run."""
    from reference import Checker

    checker = None if workload == "verify" else Checker()
    attempted = failed = 0
    correct = not result["mpmath_loaded"]
    messages = [] if correct else ["mpmath was loaded in the worker process"]
    for r in result["rounds"]:
        if workload == "verify":
            verdicts = check_verify_round(r)
        else:
            verdicts = [checker.check(op, res) for op, res in zip(r["ops"], r["results"])]
        for op, ok, probe in zip(r["ops"], verdicts, r["probe"]):
            attempted += 1
            if ok:
                continue
            failed += 1
            if not probe:
                correct = False
                if len(messages) < 10:
                    messages.append(f"wrong output: {json.dumps(op)[:200]}")
    return attempted, failed, correct, messages


# --------------------------------------------------------------- metrics

def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(result, setup_s, key="norm"):
    """End-to-end metrics from the normalized ("norm") or the raw ("times") timings."""
    rounds = [r for r in result["rounds"] if not r["traced"]]
    lat = sorted(1000.0 * t for r in rounds for t in r[key])
    return {
        "ops_per_s": sum(len(r[key]) for r in rounds) / sum(sum(r[key]) for r in rounds),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": result["rss_kb"] / 1024.0,
    }, {"samples": len(lat), "beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
        "rounds": len(rounds)}


def _merged(traces):
    out = {"calls": {}, "incl": {}, "self": {}, "extra": {}}
    for tr in traces:
        for key in out:
            for name, v in tr[key].items():
                out[key][name] = out[key].get(name, 0) + v
    return out


def _kind(op) -> str:
    return op if isinstance(op, str) else op[0]


def op_module(op) -> str:
    """The weylfun module whose public function an operation calls."""
    kind = _kind(op)
    if kind in ("weyl_product", "commutator", "hadamard") or kind.startswith("weyl_"):
        return "weyl"
    if kind.startswith(("j_", "jacobi", "bessel_")):
        return "bessel"
    if kind.startswith(("disentangle", "apply_factored", "exp_taylor")):
        return "disentangle"
    if kind.startswith("algebra_"):
        return "algebra"
    return "cli" if kind == "cli" else "polyfam"


def busy_shares(rounds) -> dict:
    """Share of untraced busy time (inclusive) by the module each operation calls."""
    totals = {}
    for r in rounds:
        if r["traced"]:
            continue
        for op, t in zip(r["ops"], r["norm"]):
            mod = op_module(op)
            totals[mod] = totals.get(mod, 0.0) + t
    whole = sum(totals.values()) or 1.0
    return {m: 100.0 * t / whole for m, t in sorted(totals.items())}


def trace_overhead(workload, rounds) -> float:
    """Traced over untraced busy time, in %, at the run's operation mix.

    Each operation kind's median time traced and untraced is weighted by its
    count per round, so rounds that drew cheaper parameters do not tilt it.
    Serving workloads skip round 0, which runs with the caches cold.
    """
    if workload != "verify":
        rounds = rounds[1:]
    times = {True: {}, False: {}}
    for r in rounds:
        for op, t in zip(r["ops"], r["norm"]):
            times[r["traced"]].setdefault(_kind(op), []).append(t)
    kinds = set(times[True]) & set(times[False])
    if not kinds:
        return 0.0
    weight = {k: len(times[True][k]) for k in kinds}
    traced = sum(weight[k] * statistics.median(times[True][k]) for k in kinds)
    plain = sum(weight[k] * statistics.median(times[False][k]) for k in kinds)
    return 100.0 * (traced / plain - 1.0)


def layer_metrics(workload, result):
    rounds = result["rounds"]
    n = max(sum(1 for r in rounds if r["traced"]), 1)
    agg = _merged(result["traces"])
    overhead = trace_overhead(workload, rounds)
    module_self = {}
    for name, s in agg["self"].items():
        mod = name.split(".", 1)[0]
        module_self[mod] = module_self.get(mod, 0.0) + s
    metrics = {}
    for name, unit, kind, src in LAYER_METRICS:
        if kind == "calls":
            v = sum(agg["calls"].get(s, 0) for s in src) / n
        elif kind == "ms":
            v = 1000.0 * sum(agg["incl"].get(s, 0.0) for s in src) / n
        elif kind == "self_ms":
            v = 1000.0 * sum(agg["self"].get(s, 0.0) for s in src) / n
        elif kind == "extra":
            v = sum(agg["extra"].get(s, 0) for s in src) / n
        elif kind == "import":
            v = 1000.0 * statistics.median(result["import_s"])
        elif kind == "module_self":
            v = 1000.0 * module_self.get(src[0], 0.0) / n
        else:
            v = overhead
        metrics[name] = {"value": v, "unit": unit}
    total_self = sum(module_self.values()) or 1.0
    shares = {m: 100.0 * s / total_self for m, s in sorted(module_self.items())}
    return metrics, shares


# ------------------------------------------------------------------ main

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload, seed, seconds, trace, min_rounds=None):
    """Run one workload; returns the result line as a dict plus a record for results/."""
    from workloads import exact_rounds, numeric_rounds

    min_rounds = MIN_ROUNDS[workload] if min_rounds is None else min_rounds
    # half the fresh starts before the rounds and half after, so they sample the run's span
    setups = [measure_setup() for _ in range(SETUP_STARTS // 2)]
    if workload == "verify":
        result = run_verify(seed, seconds, trace, min_rounds)
    else:
        rounds_of = exact_rounds if workload == "exact_families" else numeric_rounds
        result = run_served(workload, seed, seconds, trace, rounds_of, min_rounds)
    setups += [measure_setup() for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
    setup_s = statistics.median(s for s, _ in setups)
    attempted, failed, correct, messages = check_rounds(workload, result)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_starts_s": [s for s, _ in setups], "messages": messages}
    if trace:
        metrics, shares = layer_metrics(workload, result)
        record["module_self_share_pct"] = shares
    else:
        metrics, counts = end_to_end(result, setup_s)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        record.update(counts, busy_share_pct=busy_shares(result["rounds"]),
                      raw_metrics=end_to_end(result, setup_s, key="times")[0],
                      round_speed=[calibrate.scale(*r["calib"]) for r in result["rounds"]
                                   if "calib" in r])
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = line
    return line, record


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "weylfun" / "cli.py").is_file():
        print(f"error: weylfun sources not found under {SRC}", file=sys.stderr)
        return 2
    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for msg in record["messages"]:
        print(msg, file=sys.stderr)
    if "module_self_share_pct" in record:
        shares = ", ".join(f"{m} {v:.1f}%" for m, v in record["module_self_share_pct"].items())
        print(f"busy-time shares (self time): {shares}", file=sys.stderr)
    else:
        shares = ", ".join(f"{m} {v:.1f}%" for m, v in record["busy_share_pct"].items())
        print(f"samples {record['samples']}, beyond p90 {record['beyond_p90']}, "
              f"rounds {record['rounds']}; busy-time shares by module called: {shares}",
              file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
