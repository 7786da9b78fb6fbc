"""What every workload shares: the run result, checks, digests and memory.

A workload returns a :class:`RunResult`.  Its end-to-end metrics carry a
sample count; its checks are named and any failed check makes the run
incorrect.  Answer digests are kept in ``perfbench/_out/digests.json``
under (workload, seed, code fingerprint), so a second run of the same code
on the same seed must reproduce the first run's digest.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""
    #: Whether the value is scaled to the host's speed (see ``hostspeed``).
    scaled: bool = False


@dataclass
class RunResult:
    workload: str
    seed: int
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Per-layer metric values (traced runs only) and the span recorder.
    layers: dict | None = None
    recorder: object = None

    def metric(
        self, name: str, value: float, unit: str, samples: int, note: str = "", scaled: bool = False
    ) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note, scaled)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def peak_rss_mib() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def histogram_arrays(histogram) -> tuple:
    return tuple(np.asarray(a, dtype=float) for a in histogram.as_triple())


def same_histogram(left, right) -> bool:
    """Bit-identical bucket bounds and probabilities."""
    return all(
        a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(histogram_arrays(left), histogram_arrays(right))
    )


def max_difference(left, right) -> float:
    worst = 0.0
    for a, b in zip(histogram_arrays(left), histogram_arrays(right)):
        if a.shape != b.shape:
            return float("inf")
        if a.size:
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


class Digest:
    """A running SHA-256 over answers, in the order they are added."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add_histogram(self, key, histogram) -> None:
        self._hash.update(repr(key).encode())
        for array in histogram_arrays(histogram):
            self._hash.update(array.tobytes())
        self.count += 1

    def add_value(self, value) -> None:
        self._hash.update(repr(value).encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def code_fingerprint() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeatable_digest(result: RunResult, name: str, digest: Digest) -> None:
    """Record ``digest`` and check it against an earlier run of the same code and seed."""
    OUT_DIR.mkdir(exist_ok=True)
    store_path = OUT_DIR / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{result.workload}:{name}:{result.seed}:{code_fingerprint()}"
    value = f"{digest.count}:{digest.hexdigest()}"
    previous = store.get(key)
    result.check(
        f"{name} digest repeats",
        previous is None or previous == value,
        value if previous is None else f"{value} (earlier run: {previous})",
    )
    store[key] = value
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def paired_overhead(units, run_untraced, run_traced) -> float:
    """Tracing overhead: traced over untraced time of the same units, minus 1.

    Each unit runs once each way, alternating which goes first (ABBA), so
    whatever the first run leaves warm for the second cancels out.  The
    span wrappers are installed only around the traced calls, into a
    recorder of their own.
    """
    from . import layers
    from .spans import SpanRecorder

    recorder = SpanRecorder()
    totals = {"untraced": 0.0, "traced": 0.0}

    def untraced(unit):
        started = time.perf_counter()
        run_untraced(unit)
        totals["untraced"] += time.perf_counter() - started

    def traced(unit):
        patcher = layers.install(recorder)
        try:
            started = time.perf_counter()
            run_traced(unit)
            totals["traced"] += time.perf_counter() - started
        finally:
            patcher.restore()

    for index, unit in enumerate(units):
        first, second = (untraced, traced) if index % 2 == 0 else (traced, untraced)
        first(unit)
        second(unit)
    return totals["traced"] / totals["untraced"] - 1.0
