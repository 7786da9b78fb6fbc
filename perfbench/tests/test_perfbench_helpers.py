"""Tests for the benchmark's own helpers: percentiles, the load generators, spans."""

import itertools
import math

import pytest

from perfbench import stats
from perfbench.openloop import Arrival, Saturated, run_open_loop, run_saturated
from perfbench.spans import Coverage, Span, SpanRecorder, self_times, unattributed_share


# --------------------------------------------------------------------- #
# Percentile rule: at least ten samples beyond a reported percentile.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, point, expected",
    [(1000, 99.0, True), (999, 99.0, False), (200, 95.0, True), (199, 95.0, False),
     (20, 50.0, True), (19, 50.0, False), (10000, 99.9, True), (9999, 99.9, False)],
)
def test_supported_needs_ten_samples_beyond(n, point, expected):
    assert stats.supported(n, point) is expected
    assert stats.min_samples_for(point) <= n or not expected


def test_percentile_refuses_an_unsupported_point():
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        stats.percentile(range(500), 99.0)


def test_nearest_rank_returns_an_observed_sample_and_keeps_failures_infinite():
    values = list(range(1, 199)) + [math.inf, math.inf]  # 200 samples, two failed
    assert stats.percentile(values, 50.0) == 100
    assert stats.percentile(values, 95.0) == 190
    values = list(range(1, 190)) + [math.inf] * 11
    assert stats.percentile(values, 95.0) == math.inf


# --------------------------------------------------------------------- #
# Open loop: latency from due time, sheds count as misses.
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeResponse:
    def __init__(self, status, latency_s, queue_time_s=0.0, batch_size=1):
        self.status = status
        self.latency_s = latency_s
        self.queue_time_s = queue_time_s
        self.batch_size = batch_size


class FakeTicket:
    def __init__(self, submitted_at_s, response):
        self.submitted_at_s = submitted_at_s
        self._response = response

    def result(self, timeout):
        return self._response


def test_latency_runs_from_due_time_through_a_generator_stall():
    clock = FakeClock()
    outcomes_by_request = {
        "a": ("ok", 0.010, 0.5),  # status, service latency, how long submit blocks
        "b": ("ok", 0.010, 0.0),
        "c": ("rejected", 0.0, 0.0),
    }

    def submit(lane, request):
        status, latency, blocks = outcomes_by_request[request]
        ticket = FakeTicket(clock.now, FakeResponse(status, latency))
        clock.now += blocks  # a blocked admission stalls the generator
        return ticket

    arrivals = [Arrival(0.0, "estimate", "a"), Arrival(0.1, "estimate", "b"),
                Arrival(0.2, "route", "c")]
    outcomes = run_open_loop(submit, arrivals, clock=clock, sleep=clock.sleep)

    first, second, third = outcomes
    assert first.latency_s == pytest.approx(0.010)
    # "b" was due at 0.1 but could only be sent at 0.5: it waited 0.4 s
    # before its 10 ms of service, and the latency shows all of it.
    assert second.lateness_s == pytest.approx(0.4)
    assert second.latency_s == pytest.approx(0.41)
    assert third.lateness_s == pytest.approx(0.3)
    assert third.latency_s == math.inf  # shed: misses every limit
    assert [o.latency_s <= 0.05 for o in outcomes] == [True, False, False]
    assert [o.latency_s <= 0.5 for o in outcomes] == [True, True, False]


def test_timeouts_and_errors_are_misses_in_percentiles():
    clock = FakeClock()
    statuses = ["ok"] * 180 + ["timeout"] * 10 + ["error"] * 5 + ["dropped"] * 5

    def submit(lane, request):
        return FakeTicket(clock.now, FakeResponse(statuses[request], 0.001))

    arrivals = [Arrival(i * 0.01, "estimate", i) for i in range(len(statuses))]
    outcomes = run_open_loop(submit, arrivals, clock=clock, sleep=clock.sleep)
    latencies = [o.latency_s for o in outcomes]
    assert sum(1 for o in outcomes if o.ok) == 180
    assert stats.percentile(latencies, 50.0) == pytest.approx(0.001)
    assert stats.percentile(latencies, 95.0) == math.inf


def test_saturated_window_bounds_outstanding_and_counts_timeouts_as_misses():
    clock = FakeClock()
    state = {"open": 0, "most": 0}

    class CountingTicket(FakeTicket):
        def result(self, timeout):
            if not getattr(self, "collected", False):
                self.collected = True
                state["open"] -= 1
            return self._response

    def submit(lane, request):
        state["open"] += 1
        state["most"] = max(state["most"], state["open"])
        clock.now += 0.01  # each send takes 10 ms of generator time
        status = "timeout" if request % 4 == 3 else "ok"
        return CountingTicket(clock.now - 0.01, FakeResponse(status, 0.02))

    arrivals = [Arrival(0.0, "estimate", i) for i in range(1000)]
    phase = run_saturated(submit, arrivals, duration_s=1.0, window=8, clock=clock)
    assert state["most"] == 8 and state["open"] == 0
    assert len(phase) == 100  # sends stop once the duration has passed
    assert list(phase.sent_s) == pytest.approx([100.0 + 0.01 * i for i in range(100)])
    assert phase.statuses == {"ok": 75, "timeout": 25}
    assert [phase.latency_s(i) for i in range(4)] == pytest.approx([0.02, 0.02, 0.02, math.inf])
    assert phase.kept == []  # no response kept unless asked for
    assert phase.elapsed_s == pytest.approx(0.99 + 0.02)  # first send to last answer
    assert phase.goodput(limit_s=0.05) == pytest.approx(75 / 1.01)  # timeouts miss
    assert phase.goodput(limit_s=0.01) == 0.0
    both = Saturated()
    both.extend(phase)
    both.extend(phase)
    assert len(both) == 200 and both.statuses == {"ok": 150, "timeout": 50}
    assert both.goodput(limit_s=0.05) == pytest.approx(150 / 2.02)
    with pytest.raises(ValueError, match="ran out"):
        run_saturated(submit, arrivals[:10], duration_s=1.0, window=8, clock=clock)


def test_keep_chooses_the_responses_kept_and_a_cycled_pool_never_runs_out():
    clock = FakeClock()

    def submit(lane, request):
        clock.now += 0.01
        status = "timeout" if request == 2 else "ok"
        return FakeTicket(clock.now - 0.01, FakeResponse(status, 0.02, batch_size=request))

    pool = [Arrival(0.0, "estimate", i) for i in range(4)]
    phase = run_saturated(
        submit,
        itertools.cycle(pool),
        duration_s=1.0,
        window=8,
        clock=clock,
        keep=lambda arrival, response: arrival.request == 1,
    )
    assert len(phase) == 100
    assert list(phase.batch_size[:6]) == [0, 1, 2, 3, 0, 1]  # the pool, over again
    assert [o.arrival.request for o in phase.kept] == [1] * 25
    assert all(o.latency_s == pytest.approx(0.02) for o in phase.kept)
    assert list(phase.ok[:4]) == [1, 1, 0, 1]

    outcomes = run_open_loop(
        submit, pool, clock=clock, sleep=clock.sleep, keep=lambda arrival, response: False
    )
    assert all(o.response is None for o in outcomes)
    assert [o.ok for o in outcomes] == [True, True, False, True]  # timings and status stay


# --------------------------------------------------------------------- #
# Spans: self time subtracts what the children cover.
# --------------------------------------------------------------------- #
def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, 1, name, 0, start, end)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 5.0),
        _span(3, 1, 4.0, 8.0),  # overlaps span 2: counted once
        _span(4, 2, 2.5, 4.5),  # a grandchild does not reduce span 1 again
        _span(5, 1, 9.5, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 0.5)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(2.0)


def test_self_times_of_sequential_spans_add_up_to_the_root():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_shares_request_ids():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: "inner", "child", annotate=lambda r, a, k: {"r": r})

    def outer_body():
        inner()
        inner()

    recorder.wrap(outer_body, "parent")()
    recorder.wrap(outer_body, "parent")()
    parents = [s for s in recorder.spans if s.name == "parent"]
    children = [s for s in recorder.spans if s.name == "child"]
    assert len(parents) == 2 and len(children) == 4
    assert {c.parent_id for c in children} == {p.span_id for p in parents}
    assert parents[0].request_id != parents[1].request_id
    for child in children:
        parent = next(p for p in parents if p.span_id == child.parent_id)
        assert child.request_id == parent.request_id
        assert child.attrs == {"r": "inner"}
    own = self_times(recorder.spans)
    # Each parent spans 5 ticks, its children 1 tick each.
    assert [own[p.span_id] for p in parents] == [3.0, 3.0]


def test_recorder_closes_spans_on_error():
    recorder = SpanRecorder()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        recorder.wrap(boom, "failing")()
    (span,) = recorder.spans
    assert span.attrs == {"error": True} and span.end >= span.start


def test_coverage_and_unattributed_share():
    coverage = Coverage([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert coverage(0.0, 4.0) == pytest.approx(3.0)
    assert coverage(1.5, 3.5) == pytest.approx(1.0)
    assert coverage(2.0, 3.0) == 0.0
    spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 0.5, 1.0), _span(3, None, 3.0, 4.0)]
    assert unattributed_share(spans, [(0.0, 4.0)]) == pytest.approx(0.25)
