"""Seeded operation streams for the exact_families and numeric_eval workloads.

A run is a sequence of rounds.  Every round of a workload holds the same
number of operations of each kind; only the parameters come from the seeded
generator.  numeric_eval rounds also end with a fixed set of probes of two
known faults (see KNOWN_FAULT_PROBES), whose inputs do not depend on the
seed, so the share of failed operations is the same in every run.

An operation is a JSON list ``[kind, *args]`` (see worker.prepare).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

LAGUERRE_ORDERS = ("0", "1", "2", "5", "1/2", "3/2", "5/2", "-1/2")

# Exponents (a, b, c) of exp{t(a x^2 + b(xp+px) + c p^2)}; dyadic parts, so the
# float values convert to small exact fractions.
EXPONENTS = (
    ((4.0, 0.0), (0.0, -2.0), (-1.0, 0.0)),  # the even-Hermite generator
    ((1.0, 0.0), (0.0, 0.5), (-0.5, 0.0)),
    ((0.25, 0.0), (0.5, 0.0), (0.0, 0.0)),
    ((0.0, 1.0), (0.25, 0.25), (0.5, 0.0)),
)
RK4_T_END = (0.05, 0.1, 0.15, 0.2)


def known_fault_probes() -> list:
    """Operations that miss their tolerance on every run, by two named faults.

    * bessel.j_series loses about e^x * eps, so J_n(x) through j_signed
      (the CLI default) misses 1e-12 * (1 + |J|) for 20 <= x <= 60;
    * psi_eval evaluates exact H_n coefficients in floats, so it misses
      1e-10 for n >= 60.
    """
    probes = [["j_signed", n, float(x)] for x in range(20, 61, 5) for n in (0, 1, 2)]
    probes += [["psi_eval", n, 2.5] for n in (60, 70, 80, 90, 100)]
    return probes


KNOWN_FAULT_PROBES = known_fault_probes()


# ----------------------------------------------------------- generators

def _frac(rng, lo=-3, hi=3, den=3) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, den)))


def _gauss(rng) -> list:
    return [_frac(rng), _frac(rng)]


def _weylop(rng, max_exp) -> list:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = _gauss(rng)
    terms = {k: v for k, v in terms.items() if v != ["0", "0"]}
    if not terms:
        terms = {(0, 0): ["1", "0"]}
    return [[j, k, re, im] for (j, k), (re, im) in sorted(terms.items())]


def _poly(rng, max_degree) -> list:
    deg = rng.randint(0, max_degree)
    out = [[k, _frac(rng), _frac(rng)] for k in range(deg + 1)]
    out = [t for t in out if t[1:] != ["0", "0"]]
    return out or [[0, "1", "0"]]


def _strata(rng, lo, hi, k) -> list:
    """k floats, one uniform draw in each of k equal slices of [lo, hi], shuffled.

    Every round then covers the whole range alike, so the cost of a round,
    and the spread of operation times in a run, hardly depend on the seed.
    """
    width = (hi - lo) / k
    out = [round(lo + width * (i + rng.random()), 6) for i in range(k)]
    rng.shuffle(out)
    return out


def _int_strata(rng, lo, hi, k) -> list:
    """k integers spread evenly over [lo, hi], shuffled."""
    return [int(v) for v in _strata(rng, lo, hi + 1 - 1e-9, k)]


class Deck:
    """Draws from a fixed list without replacement, reshuffling when it runs out.

    Used for the parameters that set most of a round's cost, so every run
    of a few dozen rounds draws each value about equally often.
    """

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def exact_rounds(rng: random.Random):
    """Round maker for exact_families; each call returns one round of operations."""
    decks = {
        "op_small": Deck(rng, range(6, 16)),
        "op_large": Deck(rng, range(16, 26)),
        "taylor_order": Deck(rng, range(8, 15)),
    }
    return lambda: exact_round(rng, decks)


def exact_round(rng: random.Random, decks) -> list:
    """40 exact constructions; most time in algebra and weyl."""
    ops = []
    for kind in ("hermite_recurrence", "hermite_rodrigues"):
        ops += [[kind, n] for n in _int_strata(rng, 10, 25, 2)]
    # the operator route costs ~n^3: one small and one large degree per round
    ops.append(["hermite_operator", decks["op_small"].draw()])
    ops.append(["hermite_operator", decks["op_large"].draw()])
    for kind in ("laguerre_recurrence", "laguerre_operator", "laguerre_explicit"):
        for n in _int_strata(rng, 8, 20, 2):
            ops.append([kind, n, rng.choice(LAGUERRE_ORDERS)])
    for _ in range(12):
        ops.append(["weyl_product", _weylop(rng, 3), _weylop(rng, 3)])
    for _ in range(6):
        ops.append(["commutator", _weylop(rng, 3), _weylop(rng, 3)])
    ops.append(["commutator", [[1, 0, "1", "0"]], [[0, 1, "1", "0"]]])  # [x, p] = i
    for j, k in ((1, 0), (2, 0), (0, 1), (0, 2)):
        a = [[j, k, _frac(rng, 1, 3), "0"]]
        ops.append(["hadamard", a, _weylop(rng, 2), [_frac(rng, -2, 2, 4), "0"]])
    ops.append([
        "exp_taylor",
        [list(c) for c in rng.choice(EXPONENTS)],
        rng.randint(1, 6) / 64,
        _poly(rng, 3),
        decks["taylor_order"].draw(),
    ])
    ops.append(["cli", ["eval", "hermite", "--n", str(rng.randint(5, 25)), "--output", "json"]])
    ops.append(["cli", ["eval", "laguerre", "--n", str(rng.randint(5, 20)),
                        f"--alpha={rng.choice(LAGUERRE_ORDERS)}", "--output", "json"]])
    ops.append(["cli", ["table", "hermite", "--n-max", str(rng.randint(5, 15)),
                        "--format", "json"]])
    ops.append(["cli", ["table", "laguerre", "--n-max", str(rng.randint(5, 15)),
                        f"--alpha={rng.choice(LAGUERRE_ORDERS)}", "--format", "json"]])
    return ops


def numeric_rounds(rng: random.Random):
    """Round maker for numeric_eval; each call returns one round of operations."""
    decks = {"laguerre_terms": Deck(rng, range(20, 61, 4))}
    return lambda: numeric_round(rng, decks)


def numeric_round(rng: random.Random, decks) -> list:
    """248 float evaluations across bessel, the float paths of polyfam and disentangle.

    The counts put the median operation time inside the block of
    j_integral_auto calls, whose times cluster, rather than at the edge
    between two kinds, where it moved ~10% between runs.
    """
    ops = []
    ops += [["j_signed", n, x] for n, x in
            zip(_int_strata(rng, -15, 15, 30), _strata(rng, -10, 10, 30))]
    ops += [["j_miller", n, x] for n, x in
            zip(_int_strata(rng, 5, 30, 10), _strata(rng, 0.05, 10, 10))]
    ops += [["j_integral_auto", n, x] for n, x in
            zip(_int_strata(rng, -10, 10, 20), _strata(rng, -10, 10, 20))]
    ops += [["j_addition", n, x, y, 30] for n, x, y in
            zip(_int_strata(rng, -5, 5, 12), _strata(rng, 0.1, 4, 12), _strata(rng, 0.1, 4, 12))]
    ops += [["jacobi_anger", x, y, 40] for x, y in
            zip(_strata(rng, 0.1, 5, 12), _strata(rng, -math.pi, math.pi, 12))]
    # |t| >= 0.7: below it j_series's absolute stopping rule shows (see README)
    ops += [["j_genfun", t * rng.choice((1, -1)), x, 40] for t, x in
            zip(_strata(rng, 0.7, 1.5, 12), _strata(rng, 0.1, 4, 12))]
    ops += [["j_translate", n, x, y, 30] for n, x, y in
            zip(_int_strata(rng, 0, 5, 30), _strata(rng, 0.5, 5, 30), _strata(rng, -1, 1, 30))]
    for kind in ("psi_eval", "psi_derivative"):
        ops += [[kind, n, x] for n, x in
                zip(_int_strata(rng, 0, 24, 20), _strata(rng, -6, 6, 20))]
    ops += [["even_hermite_partial", t, x, n] for t, x, n in
            zip(_strata(rng, -0.2, 0.2, 6), _strata(rng, -2, 2, 6), _int_strata(rng, 10, 40, 6))]
    ops += [["hermite_genfun_partial", a, x, n] for a, x, n in
            zip(_strata(rng, -0.8, 0.8, 6), _strata(rng, -2, 2, 6), _int_strata(rng, 10, 60, 6))]
    ops += [["laguerre_genfun_partial", t, x, rng.choice(LAGUERRE_ORDERS),
             decks["laguerre_terms"].draw()]
            for t, x in zip(_strata(rng, -0.5, 0.6, 2), _strata(rng, 0.1, 6, 2))]
    ops += [["disentangle_ode", [list(c) for c in rng.choice(EXPONENTS)], rng.choice(RK4_T_END), n]
            for n in _int_strata(rng, 250, 2500, 6)]
    ops += [["apply_factored", t, _poly(rng, 6), x] for t, x in
            zip(_strata(rng, -0.2, 0.2, 30), _strata(rng, -2, 2, 30))]
    return ops + [list(p) for p in KNOWN_FAULT_PROBES]
