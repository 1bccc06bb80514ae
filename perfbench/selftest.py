#!/usr/bin/env python3
"""Short self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

1. The benchmark's own reference sums agree with mpmath, and its Weyl-algebra
   action gives [x, p] = i and the known conjugation e^(xi x^2) p e^(-xi x^2).
2. The checks reject wrong outputs.
3. Every workload runs one round (verify: one sweep) through a worker, all
   outputs pass their checks except the known-fault probes, and a traced
   round reports every per-layer metric.
4. The metric names match BENCHMARK.json.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import mpmath

import reference as ref
import run
from workloads import KNOWN_FAULT_PROBES, exact_rounds, numeric_rounds

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def test_reference_sums():
    worst = 0.0
    for n in range(31):
        for x in (-2.5, -0.7, 0.3, 1.9):
            value = ref.poly_eval_mp(ref.hermite_ref(n), x)
            want = mpmath.hermite(n, x)
            worst = max(worst, abs(value - want) / (1 + abs(want)))
    expect(worst < 1e-20, f"Hermite sums match mpmath.hermite for n <= 30 (worst {float(worst):.1e})")
    worst = 0.0
    for alpha in ("0", "1", "5", "1/2", "3/2", "-1/2"):
        a = Fraction(alpha)
        for n in range(21):
            for x in (0.37, 1.3, 4.1):
                value = ref.poly_eval_mp(ref.laguerre_ref(n, a), x)
                want = mpmath.laguerre(n, mpmath.mpf(a.numerator) / a.denominator, x)
                worst = max(worst, abs(value - want) / (1 + abs(want)))
    expect(worst < 1e-20, f"Laguerre sums match mpmath.laguerre for n <= 20 (worst {float(worst):.1e})")
    x_op, p_op = {(1, 0): (Fraction(1), Fraction(0))}, {(0, 1): (Fraction(1), Fraction(0))}
    i_op = {(0, 0): (Fraction(0), Fraction(1))}
    comm_ok = ref.same_action(
        lambda q: ref.poly_add(ref.apply_ref(x_op, ref.apply_ref(p_op, q)),
                               ref.poly_scale(ref.apply_ref(p_op, ref.apply_ref(x_op, q)),
                                              (Fraction(-1), Fraction(0)))),
        lambda q: ref.apply_ref(i_op, q), 6)
    expect(comm_ok, "reference action gives [x, p] = i")
    xi = (Fraction(1, 3), Fraction(0))
    x2 = {(2, 0): (Fraction(1), Fraction(0))}
    want = {(0, 1): (Fraction(1), Fraction(0)), (1, 0): (Fraction(0), Fraction(2, 3))}
    conj = ref.conj_substitution(x2, xi, p_op)
    expect(ref.same_action(conj, lambda q: ref.apply_ref(want, q), 6),
           "reference conjugation gives e^(xi x^2) p e^(-xi x^2) = p + 2i xi x")


def test_checks_reject_wrong_outputs():
    checker = ref.Checker()
    good = [[k, str(c[0]), str(c[1])] for k, c in sorted(ref.hermite_ref(4).items())]
    expect(checker.check(["hermite_rodrigues", 4], {"value": good}), "H_4 accepted")
    bad = [list(t) for t in good]
    bad[0][1] = str(Fraction(bad[0][1]) + 1)
    expect(not checker.check(["hermite_rodrigues", 4], {"value": bad}), "wrong H_4 rejected")
    expect(not checker.check(["j_signed", 0, 1.0], {"value": float("nan")}), "NaN J_0(1) rejected")
    expect(checker.check(["j_signed", 0, 1.0], {"value": 0.7651976865579}),
           "J_0(1) off by 7e-14 accepted")
    expect(not checker.check(["j_signed", 0, 1.0], {"value": 0.76519768654797}),
           "J_0(1) off by 1e-11 rejected")
    expect(not checker.check(["psi_eval", 3, 0.5], {"error": "ValueError: x"}),
           "an operation that raised is rejected")
    wrong_comm = [[0, 0, "0", "-1"]]
    expect(not checker.check(["commutator", [[1, 0, "1", "0"]], [[0, 1, "1", "0"]]],
                             {"value": wrong_comm}), "[x, p] = -i rejected")


def test_workloads():
    for workload in run.WORKLOADS:
        line, record = run.run(workload, seed=1, seconds=0, trace=0, min_rounds=1)
        expect(line["correct"], f"{workload}: one round, every output correct {record['messages']}")
        probes = len(KNOWN_FAULT_PROBES) if workload == "numeric_eval" else 0
        expect(line["failed"] == probes,
               f"{workload}: failed {line['failed']} == known-fault probes {probes}")
        expect(set(line["metrics"]) == {n for n, _ in run.END_TO_END},
               f"{workload}: prints every end-to-end metric")
    line, _ = run.run("numeric_eval", seed=2, seconds=0, trace=1, min_rounds=2)
    names = [n for n, *_ in run.LAYER_METRICS]
    expect(len(set(names)) == len(names), "per-layer metric names are distinct")
    expect(list(line["metrics"]) == names, "traced run prints every per-layer metric")
    expect(line["metrics"]["bessel.series_calls"]["value"] > 0, "traced run counts j_series calls")
    for name, rounds_of in (("numeric_eval", numeric_rounds), ("exact_families", exact_rounds)):
        a, b = rounds_of(random.Random(7)), rounds_of(random.Random(8))
        kinds = {tuple(op[0] for op in make()) for make in (a, a, b, b)}
        expect(len(kinds) == 1, f"{name} rounds hold the same operation kinds for every seed")
    again = numeric_rounds(random.Random(7))
    expect(numeric_rounds(random.Random(7))() == again(), "the same seed gives the same inputs")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metric names and units")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(n, u) for n, u, *_ in run.LAYER_METRICS], "per-layer metric names and units")


def main() -> int:
    test_reference_sums()
    test_checks_reject_wrong_outputs()
    test_benchmark_json()
    test_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
