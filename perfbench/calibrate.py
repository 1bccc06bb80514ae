"""A fixed standard-library task that tracks the speed of the machine.

On a shared 2-vCPU Xeon VM the same Python code ran at speeds up to ~1.6x
apart, switching every few seconds.  Every timed stretch of weylfun work is
bracketed by this task, and its time is scaled by NOMINAL_S / (calibration
time measured around it): a normalized second is the time the work takes on
a machine that runs this task in NOMINAL_S.

The task mixes what weylfun does: Fraction arithmetic, sparse dict
polynomial products and float loops.  Across the two speeds its time moved
with both exact and float weylfun work to within ~4%, against ~60% for the
raw times.  It never imports weylfun, so no change to weylfun moves it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010


def _task() -> None:
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i)
    x = 0.0
    for i in range(20000):
        x += (i * 0.5) % 3.0
    p = {k: Fraction(k + 1, 3) for k in range(12)}
    for _ in range(3):
        out = {}
        for a, ca in p.items():
            for b, cb in p.items():
                out[a + b] = out.get(a + b, 0) + ca * cb
    cs = [0.5 * k for k in range(40)]
    for _ in range(300):
        acc = 0.0
        for c in cs:
            acc = acc * 0.97 + c


def measure() -> float:
    """Seconds one run of the calibration task takes now."""
    t0 = perf_counter()
    _task()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two calibrations into normalized seconds."""
    return NOMINAL_S / (0.5 * (before + after))
