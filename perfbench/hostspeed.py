"""How fast the host runs right now, from a fixed piece of reference work.

The benchmark runs on a few cores of a shared machine, whose speed moves
with what the other tenants run: the same Python work takes up to twice as
long from one second to the next, in CPU time as in wall time, so it is
not the scheduler but the cores themselves (shared caches, siblings,
clock).  Medians within a run cannot remove a slow spell that lasts a
whole run.

So each workload runs :func:`reference_work` (the benchmark's own code,
a fixed mix of interpreter work and small numpy kernels like the
program's) right next to every unit of measured work, at points where the
program has no request in flight, and divides each measured time by
``factor = reference time / REFERENCE_S``.  A time so scaled is the time
the work would have taken on the host at the speed it has when the
reference work takes :data:`REFERENCE_S`; a rate is multiplied by the
factor.  The program's own code never runs inside the reference work, and
nothing of the program runs beside it, so a change to the program moves
the scaled numbers in proportion to the raw ones.  The host's speed
cancels out only in part: under heavy load the program slows somewhat
more than the reference work (serve-cold's p50 reads about 15% higher at
a factor of 1.6 than at 1.0), so scaling narrows the spread between runs
but does not remove it.  Each workload also records its factors and its
unscaled results with its inputs.
"""

from __future__ import annotations

import time

import numpy as np

#: :func:`reference_work` on a quiet core of the machine the bounds in
#: ``BENCHMARK.json`` were set on (2 vCPUs of a shared x86-64 host).
REFERENCE_S = 0.0085
#: Reference runs per sample; the sample is their median.
REPEATS = 3

_ARRAY = np.random.default_rng(0).random(4096)


def reference_work() -> float:
    """Run the fixed reference work once; its duration in seconds."""
    started = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(20000):
        key = i % 1013
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    values = _ARRAY
    for _ in range(100):
        ordered = np.sort(values)
        cumulative = np.cumsum(ordered)
        values = (cumulative / cumulative[-1])[::-1].copy()
        np.searchsorted(ordered, values[:256])
    return time.perf_counter() - started


def factor() -> float:
    """How many times slower than at :data:`REFERENCE_S` the host runs now."""
    runs = sorted(reference_work() for _ in range(REPEATS))
    return runs[REPEATS // 2] / REFERENCE_S


class Calibration:
    """Factors sampled next to units of measured work, kept in order."""

    def __init__(self) -> None:
        self.factors: list[float] = []

    def sample(self) -> float:
        value = factor()
        self.factors.append(value)
        return value

    def summary(self) -> dict:
        ordered = sorted(self.factors)
        if not ordered:
            return {}
        return {
            "samples": len(ordered),
            "min": ordered[0],
            "median": ordered[(len(ordered) - 1) // 2],
            "max": ordered[-1],
        }
