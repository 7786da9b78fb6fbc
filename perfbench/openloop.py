"""Load generators: an open loop timed from due time, and a saturating window.

The generator submits each request at its scheduled offset whether or not
earlier ones have finished.  A request's latency runs from its *due* time,
not from when the generator got round to submitting it, so a generator
stall (for example a submit blocked on a full admission queue) shows up as
latency on every request it delayed.  A request that is not answered
``ok`` -- rejected, dropped, timed out or errored -- records an infinite
latency: it misses every latency limit.  The open loop also reports how late
the generator ran.

:func:`run_saturated` measures capacity instead: it keeps a fixed number
of requests outstanding, sending the next one as soon as the oldest is
answered, so the rate it reaches is set by the server and not by an
offered schedule.  A request there is due when it is sent.  How many
requests it answers grows with the server's speed, so it records each
one's timings and status in compact arrays (:class:`Saturated`), and not
as an :class:`Outcome`: the harness's own memory then barely moves with
the server's speed, and neither does the collector's work.

Both keep a request's response only where ``keep(arrival, response)``
says so (by default the open loop keeps every one and the saturated loop
none), so a long run's bookkeeping need not hold every answer alive.

The submitted object only needs ``submit(lane, request)`` returning a
ticket with ``submitted_at_s`` and ``result(timeout)``; the response needs
``status``, ``latency_s``, ``queue_time_s`` and ``batch_size`` (as
:class:`repro.frontend.Ticket` / ``FrontendResponse`` have).
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

STATUS_OK = "ok"


@dataclass(frozen=True, slots=True)
class Arrival:
    """One scheduled request: ``offset_s`` after the phase starts."""

    offset_s: float
    lane: str
    request: object
    key: object = None


@dataclass(slots=True)
class Outcome:
    arrival: Arrival
    due_s: float
    sent_s: float
    #: When the server took the request (``Ticket.submitted_at_s``).
    submitted_s: float
    status: str
    done_s: float
    queue_time_s: float
    batch_size: int
    #: ``None`` where the generator's ``keep`` declined it.
    response: object

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def latency_s(self) -> float:
        """Due time to answer; ``inf`` for anything not answered ``ok``."""
        return self.done_s - self.due_s if self.ok else math.inf

    @property
    def lateness_s(self) -> float:
        """How long after its due time the generator submitted the request."""
        return max(self.sent_s - self.due_s, 0.0)


def run_open_loop(
    submit: Callable[[str, object], object],
    arrivals: Sequence[Arrival],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    result_timeout_s: float = 120.0,
    keep: Callable[[Arrival, object], bool] | None = None,
) -> list[Outcome]:
    """Submit ``arrivals`` on schedule, then collect every outcome in order."""
    started = clock()
    pending = []
    for arrival in arrivals:
        due = started + arrival.offset_s
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        pending.append((arrival, due, sent, submit(arrival.lane, arrival.request)))
    return [_collect(*entry, result_timeout_s, keep) for entry in pending]


@dataclass
class Saturated:
    """A saturated phase: per request, in send order, what an :class:`Outcome` holds.

    ``kept`` holds full outcomes for the requests ``keep`` chose; a
    request is due when it is sent.
    """

    sent_s: array = field(default_factory=lambda: array("d"))
    submitted_s: array = field(default_factory=lambda: array("d"))
    done_s: array = field(default_factory=lambda: array("d"))
    queue_time_s: array = field(default_factory=lambda: array("d"))
    batch_size: array = field(default_factory=lambda: array("l"))
    ok: array = field(default_factory=lambda: array("b"))
    statuses: Counter = field(default_factory=Counter)
    kept: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.sent_s)

    def goodput(self, limit_s: float) -> float:
        """Answers within ``limit_s`` of being sent, per second of ``elapsed_s``."""
        good = sum(1 for index in range(len(self)) if self.latency_s(index) <= limit_s)
        return good / self.elapsed_s

    def extend(self, other: "Saturated") -> None:
        """Append another phase's requests; the elapsed times add up."""
        for name in ("sent_s", "submitted_s", "done_s", "queue_time_s", "batch_size", "ok"):
            getattr(self, name).extend(getattr(other, name))
        self.statuses.update(other.statuses)
        self.kept += other.kept
        self.elapsed_s += other.elapsed_s

    def latency_s(self, index: int) -> float:
        """Send to answer; ``inf`` for anything not answered ``ok``."""
        return self.done_s[index] - self.sent_s[index] if self.ok[index] else math.inf

    def _add(self, arrival, sent, ticket, result_timeout_s, keep) -> None:
        outcome = _collect(arrival, sent, sent, ticket, result_timeout_s, keep)
        self.sent_s.append(sent)
        self.submitted_s.append(outcome.submitted_s)
        self.done_s.append(outcome.done_s)
        self.queue_time_s.append(outcome.queue_time_s)
        self.batch_size.append(outcome.batch_size)
        self.ok.append(outcome.ok)
        self.statuses[outcome.status] += 1
        if outcome.response is not None:
            self.kept.append(outcome)


def run_saturated(
    submit: Callable[[str, object], object],
    arrivals: Iterable[Arrival],
    duration_s: float,
    window: int,
    clock: Callable[[], float] = time.perf_counter,
    result_timeout_s: float = 120.0,
    keep: Callable[[Arrival, object], bool] = lambda arrival, response: False,
) -> Saturated:
    """Keep ``window`` requests outstanding for ``duration_s``.

    ``arrivals`` are sent in order (their offsets are ignored) until the
    duration ends, and then every outstanding request is collected.
    ``elapsed_s`` runs from the first send to the last answer.  Running
    out of arrivals before the duration ends raises ``ValueError``; pass
    an endless iterable (``itertools.cycle``) to send a pool over again.
    """
    started = clock()
    outstanding: deque = deque()
    phase = Saturated()
    for arrival in arrivals:
        if clock() - started >= duration_s:
            break
        if len(outstanding) >= window:
            phase._add(*outstanding.popleft(), result_timeout_s, keep)
        sent = clock()
        outstanding.append((arrival, sent, submit(arrival.lane, arrival.request)))
    else:
        sent = len(phase) + len(outstanding)
        raise ValueError(f"{sent} arrivals ran out before {duration_s} s")
    for entry in outstanding:
        phase._add(*entry, result_timeout_s, keep)
    phase.elapsed_s = max(phase.done_s) - started
    return phase


def _collect(arrival, due, sent, ticket, result_timeout_s, keep) -> Outcome:
    response = ticket.result(result_timeout_s)
    return Outcome(
        arrival=arrival,
        due_s=due,
        sent_s=sent,
        submitted_s=ticket.submitted_at_s,
        status=response.status,
        done_s=ticket.submitted_at_s + response.latency_s,
        queue_time_s=response.queue_time_s,
        batch_size=response.batch_size,
        response=response if keep is None or keep(arrival, response) else None,
    )
