"""Span recording around public entry points, and the self-time arithmetic.

A :class:`SpanRecorder` wraps callables so that each call records a
:class:`Span`: its name, start, end, parent span and request id.  The
parent is the innermost span open on the same thread; a span opened with
no parent starts a new request id that its children inherit.  Spans stay
in memory until :meth:`SpanRecorder.write_jsonl` writes them out.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  :func:`unattributed_share` is the share of a
run's wall time that no root span covers: time no layer accounts for.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans from any thread into one in-memory list."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
            request_id = stack[-1].request_id if stack else next(self._requests)
        span = Span(
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            request_id=request_id,
            name=name,
            thread=threading.get_ident(),
            start=self.clock(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        function: Callable,
        name: str,
        annotate: Callable[[object, tuple, dict], dict] | None = None,
    ) -> Callable:
        """``function`` recording one span per call; ``annotate(result, args, kwargs)``
        may add attributes from the call's result."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                self.close(span)
                raise
            if annotate is not None:
                span.attrs.update(annotate(result, args, kwargs))
            self.close(span)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "request": span.request_id,
                            "name": span.name,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, replacement: object) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """The union of ``(start, end)`` intervals as sorted, disjoint intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    return sum(end - start for start, end in merge(intervals))


class Coverage:
    """Answers "how much of ``[start, end]`` do these intervals cover" in log time."""

    def __init__(self, intervals: Iterable[tuple[float, float]]) -> None:
        self._intervals = merge(intervals)
        self._ends = [end for _start, end in self._intervals]

    def __call__(self, start: float, end: float) -> float:
        total = 0.0
        index = bisect.bisect_right(self._ends, start)
        while index < len(self._intervals) and self._intervals[index][0] < end:
            low, high = self._intervals[index]
            total += max(0.0, min(high, end) - max(low, start))
            index += 1
        return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        ]
        result[span.span_id] = span.duration - union_length(clipped)
    return result


def root_coverage(spans: Iterable[Span]) -> Coverage:
    """Coverage by the root spans."""
    return Coverage((span.start, span.end) for span in spans if span.parent_id is None)


def unattributed_share(spans: Iterable[Span], windows: Iterable[tuple[float, float]]) -> float:
    """Share of the ``windows``' wall time that no root span covers."""
    coverage = root_coverage(spans)
    windows = list(windows)
    wall = sum(end - start for start, end in windows)
    return 1.0 - sum(coverage(start, end) for start, end in windows) / wall if wall else 0.0
