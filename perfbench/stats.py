"""Percentiles under the benchmark's rule, and small averaging helpers.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it: with ``n`` samples, ``p`` is supported when
``n * (100 - p) / 100 >= MIN_BEYOND``.  So p99 needs 1000 samples and p95
needs 200.  Percentiles use the nearest-rank definition, which always
returns an observed sample and therefore works when failed requests are
recorded as ``inf`` (a failure misses every latency limit).
"""

from __future__ import annotations

import math
from typing import Iterable

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def supported(n_samples: int, point: float) -> bool:
    """Whether ``point`` has at least :data:`MIN_BEYOND` of ``n_samples`` beyond it."""
    # Integer arithmetic on hundredths avoids float round-off at the boundary.
    return n_samples * round((100.0 - point) * 100) >= MIN_BEYOND * 10000


def min_samples_for(point: float) -> int:
    """The smallest sample count that supports ``point``."""
    return math.ceil(MIN_BEYOND * 10000 / round((100.0 - point) * 100))


def percentile(values: Iterable[float], point: float) -> float:
    """Nearest-rank percentile; raises ``ValueError`` if the sample cannot support it."""
    ordered = sorted(values)
    if not supported(len(ordered), point):
        raise ValueError(
            f"p{point:g} needs {min_samples_for(point)} samples, got {len(ordered)}"
        )
    rank = max(math.ceil(point / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    """The nearest-rank median (``nan`` for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(math.ceil(len(ordered) / 2), 1) - 1]


def mean(values: Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when ``whole`` is 0."""
    return part / whole if whole else 0.0
