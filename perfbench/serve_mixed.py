"""``serve-mixed``: open-loop Poisson traffic through a ``ServingFrontend``.

Untimed preparation builds the graph, serves a warm-up stream drawn from
the same popularity distribution, and writes a snapshot (its warm result
cache included).  Set-up is ``CostEstimationService.from_snapshot`` plus
front-end start plus the first answer, repeated :data:`SETUP_REPEATS`
times; the last one serves.

Estimate keys are Zipf-popular over a pool of about twice the result
cache's capacity, so the LRU evicts.  A fixed share of arrivals are route
requests.  Of those, a fixed share (:data:`ROUTE_MISS_SHARE`) asks for a
route the service has never searched: an origin-destination pair and
alpha-interval sent once, so the routing engine runs a search.  The rest
are Zipf-popular over a small hot pool.  Snapshots carry the result cache
but not the route cache, so after boot every hot pair is routed once
through the front-end; those searches also fill the result cache with
the engine's candidate paths, so an untimed re-warm stream follows and
the phases start from the steady hit share.

The saturation phase comes first; it keeps :data:`SATURATION_WINDOW`
requests outstanding, with the route share drawn from the hot pool only,
and counts answers within :data:`LIMIT_S` of being sent: the goodput is
the capacity of the front-end, not capped by an offered rate.  After an
unmeasured lead-in, the nominal phase then sends Poisson arrivals at
:data:`NOMINAL_QPS` and times each request from its due time.  A route
search holds the single front-end worker for several milliseconds, and
estimates queued behind it wait (head-of-line blocking); that shows in
the nominal latencies.  Default ``ServiceParameters`` and
``FrontendParameters`` throughout.

Both phases run in segments of :data:`SEGMENT_S`.  After each segment,
with every request answered, the host's speed is sampled
(:mod:`perfbench.hostspeed`), and each segment's goodput, and the
computing part of each nominal-rate latency, are scaled by the samples on
either side; goodput is the median over segments, since a full garbage
collection (up to about 150 ms) times out the requests queued behind it
and sinks the segment it falls in.
"""

from __future__ import annotations

import gc
import itertools
import math
import shutil
import time

import numpy as np

from repro import (
    CostEstimationService,
    EstimateRequest,
    PathCostEstimator,
    PoissonArrivals,
    RouteRequest,
    ServingFrontend,
    TrajectoryStore,
    interval_of,
)

from . import breakdown, inputs, layers
from .common import (
    OUT_DIR,
    RunResult,
    max_difference,
    paired_overhead,
    peak_rss_mib,
    same_histogram,
)
from .hostspeed import Calibration
from .openloop import Arrival, Saturated, run_open_loop, run_saturated
from .spans import SpanRecorder, root_coverage
from .stats import mean, median, percentile, share, supported

SETUP_REPEATS = 9
#: Estimate keys: path lengths and pool size (twice the default
#: ``result_cache_capacity`` of 4096).
MIN_LENGTH, MAX_LENGTH = 1, 6
ESTIMATE_POOL = 8192
ZIPF_EXPONENT = 1.0
#: The share of arrivals that are route requests, and the share of those
#: that ask for a route never searched before (a route-cache miss).  A
#: search here takes about 10 ms of the single front-end worker, so the
#: searches hold it for about 15% of the nominal phase; at twice the route
#: share, or with 4-8-edge trips and 200 expansions, they saturate it.
ROUTE_SHARE = 0.02
ROUTE_MISS_SHARE = 0.75
#: Popular OD pairs, routed once after boot and then served from the route cache.
HOT_ROUTES = 64
#: Route search limits sent with every route request.
ROUTE_MAX_PATH_EDGES, ROUTE_MAX_EXPANSIONS = 12, 50
#: Route OD pairs are the ends of trajectory sub-trips this many edges long.
ROUTE_MIN_EDGES, ROUTE_MAX_EDGES = 2, 3
ROUTE_BUDGET_FACTOR = 1.25
#: Estimate arrivals served before the snapshot is written, and again
#: after the route searches that follow boot.
WARMUP_ARRIVALS = 24000
REWARM_ARRIVALS = 16000
#: The nominal Poisson rate in requests per second, and the share of
#: ``--seconds`` it runs for; the saturation phase takes the rest.  Both
#: run in segments of ``SEGMENT_S``, each drained before the host's speed
#: is sampled.
NOMINAL_QPS = 1000.0
NOMINAL_SHARE = 0.7
SEGMENT_S = 1.0
#: An unmeasured lead-in at the nominal rate: the first requests after a
#: boot are slower (first touches of the memory-mapped snapshot), and that
#: start-up transient would otherwise set the nominal-rate tail.
LEAD_IN_S = 1.0
#: The deadline of nominal-rate requests: generous, so a request times out
#: there only if the server stalls.
NOMINAL_DEADLINE_S = 1.0
#: The latency limit that goodput counts against, and the deadline every
#: request of the saturation phase carries.
LIMIT_S = 0.100
#: Requests kept outstanding in the saturation phase (two full coalescer
#: batches), and the draws generated per second of it: far more than the
#: front-end answers, so they do not run out.  A pool sent over again
#: would not do: its repeats hit the caches far more often than fresh
#: draws from the same popularity distribution.  The draws are kept as
#: compact arrays, and each request object made as it is sent.
SATURATION_WINDOW = 128
SATURATION_DRAWS_PER_S = 100_000
#: The nominal-rate tail reported.  p95 sits in the queueing behind route
#: searches; p99 (recorded with the inputs) sits behind full garbage
#: collections, 60-130 ms each, and moves with whether one falls in the phase.
TAIL_POINT = 95.0
#: Checks: keys compared between the built and the restored graph,
#: estimate cache hits compared with a fresh computation, and route
#: searches repeated on a fresh restore.
CHECK_RESTORE, CHECK_HITS, CHECK_SEARCHES = 32, 64, 8
OVERHEAD_REPLAY = 400


def _poisson(rng, rate_qps: float, duration_s: float) -> np.ndarray:
    return PoissonArrivals(rate_qps, seed=int(rng.integers(2**63))).offsets(duration_s)


def _route_pool(data, rng, count, seen):
    """``count`` route requests between the ends of trajectory sub-trips.

    Each departs when its trajectory entered the sub-trip, and no two (nor
    any in ``seen``) share an OD pair and alpha-interval, so each is a
    route-cache key of its own.  Sub-trip lengths cycle through
    ``ROUTE_MIN_EDGES..ROUTE_MAX_EDGES`` so every seed routes the same mix
    of distances.
    """
    network = data.network
    lengths = inputs.cyclic_lengths(ROUTE_MIN_EDGES, ROUTE_MAX_EDGES, count)
    long_enough = [t for t in data.trajectories if len(t) >= ROUTE_MAX_EDGES]
    pool = []
    for _attempt in range(100 * count + 1000):
        if len(pool) == count:
            return pool
        trajectory = long_enough[int(rng.integers(len(long_enough)))]
        length = lengths[len(pool)]
        start = int(rng.integers(0, len(trajectory) - length + 1))
        key = inputs.sub_path_key(trajectory, start, length)
        source = network.edge(key.edge_ids[0]).source
        target = network.edge(key.edge_ids[-1]).target
        identity = (source, target, interval_of(key.departure_s, data.alpha_minutes).index)
        if source == target or identity in seen:
            continue
        seen.add(identity)
        cost = sum(trajectory.edge_costs[start : start + length])
        pool.append(
            RouteRequest(
                source=source,
                target=target,
                departure_time_s=key.departure_s,
                budget_s=float(round(cost * ROUTE_BUDGET_FACTOR)),
                max_path_edges=ROUTE_MAX_PATH_EDGES,
                max_expansions=ROUTE_MAX_EXPANSIONS,
            )
        )
    raise RuntimeError(f"found {len(pool)} distinct route keys, {count} wanted")


def _draws(rng, estimates, hot, count, route_share, fresh=None):
    """``count`` (lane, request, key) draws from the popularity distributions.

    With ``fresh`` (a function returning that many new route requests),
    route draws alternate so that exactly ``ROUTE_MISS_SHARE`` of every
    prefix asks for a fresh route; the others draw from the ``hot`` pool.
    """
    is_route, estimate_ranks, hot_ranks = _draw_ranks(rng, len(estimates), len(hot), count, route_share)
    n_routes = int(is_route.sum())
    is_miss = [
        fresh is not None and int((j + 1) * ROUTE_MISS_SHARE) > int(j * ROUTE_MISS_SHARE)
        for j in range(n_routes)
    ]
    new_routes = iter(fresh(sum(is_miss)) if fresh is not None else ())
    misses = iter(is_miss)
    draws = []
    for index, (flag, e, r) in enumerate(zip(is_route, estimate_ranks, hot_ranks)):
        if not flag:
            draws.append(("estimate", estimates[e], ("estimate", int(e))))
        elif next(misses):
            draws.append(("route", next(new_routes), ("fresh", index)))
        else:
            draws.append(("route", hot[r], ("route", int(r))))
    return draws


def _draw_ranks(rng, n_estimates, n_hot, count, route_share):
    """Whether each draw is a route, its estimate rank and its hot-route rank."""
    is_route = rng.random(count) < route_share
    estimate_ranks = inputs.zipf_ranks(rng, n_estimates, ZIPF_EXPONENT, count).astype(np.int32)
    hot_ranks = inputs.zipf_ranks(rng, n_hot, ZIPF_EXPONENT, count).astype(np.int32)
    return is_route, estimate_ranks, hot_ranks


def _saturation_arrivals(ranks, estimates, hot):
    """Arrivals for the saturation phase, made from :func:`_draw_ranks` as they are sent."""
    for flag, e, r in zip(*ranks):
        if flag:
            yield Arrival(0.0, "route", hot[r], ("route", int(r)))
        else:
            yield Arrival(0.0, "estimate", estimates[e], ("estimate", int(e)))


def _scaled_latency_s(outcome, host: float) -> float:
    """Due time to answer, with only the batch's computation scaled to the host's speed.

    The rest is waiting: the generator's lateness and the admission queue,
    which holds the coalescer's linger, a timer that does not slow with
    the host.  (Waiting behind other batches is computation too, so a slow
    host still lengthens it; this leaves that unscaled.)
    """
    if not outcome.ok:
        return math.inf
    computing = outcome.done_s - outcome.submitted_s - outcome.queue_time_s
    return outcome.latency_s - computing + computing / host


def _keeper(hit_keys: int):
    """Which responses the load generators keep for the checks.

    Every route answer (a few per cent of requests), and the first cache
    hit of each of ``hit_keys`` estimate keys; the rest are dropped as
    they arrive, so memory does not grow with the requests answered.
    """
    kept = set()

    def keep(arrival, response) -> bool:
        if arrival.lane == "route":
            return True
        if (
            response.status != "ok"
            or response.response.source != "result-cache"
            or arrival.key in kept
            or len(kept) >= hit_keys
        ):
            return False
        kept.add(arrival.key)
        return True

    return keep


def _serve_closed(service, draws, chunk=64):
    """Serve draws directly on ``service``: estimates in chunks, routes one by one."""
    pending = []
    for lane, request, _key in draws:
        if lane == "route":
            service.route(request)
        else:
            pending.append(request)
            if len(pending) == chunk:
                service.submit_batch(pending)
                pending = []
    if pending:
        service.submit_batch(pending)


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult("serve-mixed", seed)
    data = inputs.dataset()
    rng = np.random.default_rng(seed)
    keys = inputs.sampled_keys(
        data.trajectories, rng, MIN_LENGTH, MAX_LENGTH, ESTIMATE_POOL, data.alpha_minutes
    )
    estimates = [EstimateRequest(key.path, key.departure_s) for key in keys]
    seen_routes = set()
    hot = _route_pool(data, rng, HOT_ROUTES, seen_routes)
    warmup = _draws(rng, estimates, hot, WARMUP_ARRIVALS, route_share=0.0)
    rewarm = _draws(rng, estimates, hot, REWARM_ARRIVALS, route_share=0.0)
    nominal_segments = max(round(seconds * NOMINAL_SHARE / SEGMENT_S), 1)
    saturation_segments = max(round(seconds / SEGMENT_S) - nominal_segments, 1)
    # The lead-in, then the nominal phase's segments, each timed from 0.
    segment_offsets = [_poisson(rng, NOMINAL_QPS, LEAD_IN_S)] + [
        _poisson(rng, NOMINAL_QPS, SEGMENT_S) for _ in range(nominal_segments)
    ]
    open_draws = iter(
        _draws(
            rng, estimates, hot, sum(map(len, segment_offsets)), ROUTE_SHARE,
            fresh=lambda count: _route_pool(data, rng, count, seen_routes),
        )
    )
    segments = [
        [Arrival(float(offset), *next(open_draws)) for offset in offsets]
        for offsets in segment_offsets
    ]
    saturation = _draw_ranks(
        rng,
        len(estimates),
        len(hot),
        int(SATURATION_DRAWS_PER_S * SEGMENT_S * saturation_segments),
        ROUTE_SHARE,
    )
    first_request = estimates[0]

    # Untimed preparation: build, warm, snapshot.
    graph = data.builder().build(TrajectoryStore(data.trajectories))
    built = CostEstimationService(PathCostEstimator(graph))
    _serve_closed(built, warmup)
    snapshot_dir = OUT_DIR / f"serve-mixed-snapshot-{seed}"
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    built.save_snapshot(snapshot_dir)
    built.close()
    del built
    # The benchmark's own objects (inputs, the built graph kept for the
    # checks) leave the collector's view, so a full collection while
    # serving walks the server's heap, as it would in a server process.
    gc.collect()
    gc.freeze()

    recorder = SpanRecorder() if trace else None
    patcher = layers.install(recorder) if trace else None
    calibration = Calibration()
    setup_times, scaled_setup_times = [], []
    try:
        before = calibration.sample()
        for repeat in range(SETUP_REPEATS):
            gc.collect()
            started = time.perf_counter()
            service = CostEstimationService.from_snapshot(snapshot_dir)
            frontend = ServingFrontend(service).start()
            first = frontend.submit_estimate(first_request).result(60.0)
            setup_times.append(time.perf_counter() - started)
            after = calibration.sample()
            scaled_setup_times.append(setup_times[-1] / ((before + after) / 2))
            before = after
            if repeat < SETUP_REPEATS - 1:
                frontend.stop()
                service.close()
        result.check("first answer after boot is ok", first.ok, first.status)
        hot_routes = [frontend.submit_route(request).result(60.0) for request in hot]
        _serve_closed(service, rewarm)
        # Set-up garbage is not charged to the measured phases.
        gc.collect()
        cache_before = service.stats()

        def submitter(deadline_s):
            def submit(lane, request):
                if lane == "route":
                    return frontend.submit_route(request, deadline_s=deadline_s)
                return frontend.submit_estimate(request, deadline_s=deadline_s)

            return submit

        # Saturation first: the fresh route searches of the nominal phase
        # fill the result cache with candidate paths, which would start the
        # saturation phase below the steady hit share.
        # Each segment ends with every request answered and the front-end
        # idle; the host's speed is sampled then, and the segment scaled by
        # the samples on either side.
        keep = _keeper(CHECK_HITS)
        saturation_arrivals = _saturation_arrivals(saturation, estimates, hot)
        saturated, outcomes_by_segment, saturated_host, segment_host = [], [], [], []
        before = calibration.sample()
        for _segment in range(saturation_segments):
            saturated.append(
                run_saturated(
                    submitter(LIMIT_S), saturation_arrivals, SEGMENT_S, SATURATION_WINDOW,
                    keep=keep,
                )
            )
            after = calibration.sample()
            saturated_host.append((before + after) / 2)
            before = after
        for arrivals in segments:
            outcomes_by_segment.append(
                run_open_loop(submitter(NOMINAL_DEADLINE_S), arrivals, keep=keep)
            )
            after = calibration.sample()
            segment_host.append((before + after) / 2)
            before = after
        frontend_stats = frontend.stats()
        frontend.stop()
        # Read before the checks below restore and build graphs of their own.
        peak_rss = peak_rss_mib()
    finally:
        gc.unfreeze()
        if trace:
            patcher.restore()
    cache_after = service.stats()

    lead_in = outcomes_by_segment[0]
    nominal = [o for segment in outcomes_by_segment[1:] for o in segment]
    outcomes = lead_in + nominal
    goodput = [phase.goodput(LIMIT_S) * host for phase, host in zip(saturated, saturated_host)]
    saturated_segments, saturated = saturated, Saturated()
    for phase in saturated_segments:
        saturated.extend(phase)
    # Every outcome that kept its response: the nominal phase's routes and
    # first cache hits, and the saturation phase's.
    with_response = [o for o in outcomes + saturated.kept if o.response is not None]
    errors = sum(1 for o in outcomes if o.status == "error") + saturated.statuses["error"]
    result.check(
        "every hot route request answered ok",
        all(r.ok for r in hot_routes),
        f"{sum(not r.ok for r in hot_routes)} of {len(hot_routes)} not ok",
    )
    result.attempted = len(outcomes) + len(saturated) + len(hot_routes)
    result.failed = errors + sum(1 for o in outcomes if not o.ok)
    is_route, estimate_ranks, _hot_ranks = (ranks[: len(saturated)] for ranks in saturation)
    estimate_keys = [o.arrival.key for o in outcomes if o.arrival.lane == "estimate"] + [
        ("estimate", int(e)) for e in estimate_ranks[~is_route]
    ]
    route_keys = [o.arrival.key for o in outcomes if o.arrival.lane == "route"]
    fresh = [o for o in outcomes if o.arrival.key[0] == "fresh"]
    result.inputs = {
        "estimate_pool": len(estimates),
        "hot_route_pool": len(hot),
        "result_cache_capacity": service.parameters.result_cache_capacity,
        "route_cache_capacity": service.parameters.route_cache_capacity,
        "distinct_estimate_keys_sent": len(set(estimate_keys)),
        "route_requests_open_loop": len(route_keys),
        "fresh_route_requests_open_loop": len(fresh),
        "estimate_path_length_quantiles": inputs.quantiles(
            len(estimates[k[1]].path) for k in estimate_keys
        ),
        "zipf_exponent": ZIPF_EXPONENT,
        "route_share": ROUTE_SHARE,
        "route_miss_share": ROUTE_MISS_SHARE,
        "route_sub_trip_edges": [ROUTE_MIN_EDGES, ROUTE_MAX_EDGES],
        "nominal_qps": NOMINAL_QPS,
        "segment_seconds": SEGMENT_S,
        "nominal_and_saturation_segments": [nominal_segments, saturation_segments],
        "saturation_window": SATURATION_WINDOW,
        "arrivals_lead_in_nominal_saturation": [len(lead_in), len(nominal), len(saturated)],
        "lead_in_seconds": LEAD_IN_S,
        "latency_limit_s": LIMIT_S,
        "warmup_arrivals": WARMUP_ARRIVALS,
        "rewarm_arrivals": REWARM_ARRIVALS,
        "setup_repeats": SETUP_REPEATS,
    }

    # Checks.
    result.check("no request errored", errors == 0, f"{errors} errors")
    result.check(
        "no nominal-rate request failed",
        all(o.ok for o in outcomes),
        f"{sum(not o.ok for o in outcomes)} not ok",
    )
    computed = sum(1 for o in fresh if o.ok and o.response.response.source == "computed")
    result.check(
        "every fresh route request ran a search",
        bool(fresh) and computed == len(fresh),
        f"{computed} of {len(fresh)} computed",
    )
    restored_estimator = PathCostEstimator(service.hybrid_graph)
    built_estimator = PathCostEstimator(graph)
    worst = max(
        max_difference(
            built_estimator.estimate(key.path, key.departure_s).histogram,
            restored_estimator.estimate(key.path, key.departure_s).histogram,
        )
        for key in keys[:CHECK_RESTORE]
    )
    result.check(
        "restored-snapshot estimates equal the built graph's",
        worst == 0.0,
        f"max |diff| = {worst} over {CHECK_RESTORE} keys",
    )
    # A cached estimate records the departure it was computed for (a route
    # search may have filled the key at another time in the same interval):
    # a hit must equal a fresh estimate at that departure, for its key.
    hits = {}
    for o in with_response:
        if o.ok and o.arrival.lane == "estimate" and o.response.response.source == "result-cache":
            hits.setdefault(o.arrival.key, (o.arrival.request, o.response.estimate))
    sample = list(hits.values())[:CHECK_HITS]
    wrong = [
        request
        for request, cached in sample
        if cached.path.edge_ids != request.path.edge_ids
        or service.cache_key(cached.path, cached.departure_time_s)
        != service.cache_key(request.path, request.departure_time_s)
        or not same_histogram(
            restored_estimator.estimate(cached.path, cached.departure_time_s).histogram,
            cached.histogram,
        )
    ]
    result.check(
        "estimate cache hits return the key's computed answer",
        bool(sample) and not wrong,
        f"{len(sample)} hit keys compared, {len(wrong)} differ",
    )
    computed_routes = {("route", index): response.result for index, response in enumerate(hot_routes)}
    route_hits = [
        (o.arrival.key, o.response.result)
        for o in with_response
        if o.ok and o.arrival.key[0] == "route" and o.response.response.source == "route-cache"
    ]
    route_wrong = [
        key
        for key, served in route_hits
        if served is not computed_routes[key]
        and (
            served.probability != computed_routes[key].probability
            or served.path != computed_routes[key].path
        )
    ]
    result.check(
        "route cache hits return the cold search's answer",
        bool(route_hits) and not route_wrong,
        f"{len(route_hits)} route hits compared, {len(route_wrong)} differ",
    )
    fresh_service = CostEstimationService.from_snapshot(snapshot_dir)
    searched = [o for o in fresh if o.ok][:CHECK_SEARCHES]
    search_wrong = [
        o.arrival.key
        for o in searched
        if (again := fresh_service.route(o.arrival.request).result).path != o.response.result.path
        or again.probability != o.response.result.probability
    ]
    fresh_service.close()
    result.check(
        "route searches under load equal the same search on a fresh restore",
        bool(searched) and not search_wrong,
        f"{len(searched)} searches compared, {len(search_wrong)} differ",
    )

    # End-to-end metrics.
    scaled = [
        (o, _scaled_latency_s(o, host) * 1e3)
        for segment, host in zip(outcomes_by_segment[1:], segment_host[1:])
        for o in segment
    ]
    nominal_ms = [latency for _o, latency in scaled]
    route_ms = [latency for o, latency in scaled if o.arrival.lane == "route"]
    result.inputs["host_speed_factor"] = calibration.summary()
    result.inputs["unscaled"] = {
        "setup_s": median(setup_times),
        "goodput_per_s": median(phase.goodput(LIMIT_S) for phase in saturated_segments),
        "p50_ms": median(o.latency_s for o in nominal) * 1e3,
        "route_p50_ms": median(o.latency_s for o in nominal if o.arrival.lane == "route") * 1e3,
    }
    result.metric("setup_s", median(scaled_setup_times), "s", len(setup_times), scaled=True)
    result.metric("peak_rss_mb", peak_rss, "MiB", 1, "until the phases end, before the checks")
    result.metric(
        "throughput_per_s",
        median(goodput),
        "1/s",
        len(saturated),
        f"answers within {LIMIT_S * 1e3:g} ms of sending, {SATURATION_WINDOW} outstanding, "
        f"median of {len(goodput)} segments of {SEGMENT_S:g} s",
        scaled=True,
    )
    result.metric(
        "latency_p50_ms",
        median(nominal_ms),
        "ms",
        len(nominal_ms),
        f"at {NOMINAL_QPS:g}/s, queue wait not scaled",
        scaled=True,
    )
    result.metric(
        "latency_tail_ms",
        percentile(nominal_ms, TAIL_POINT),
        "ms",
        len(nominal_ms),
        f"p{TAIL_POINT:g} at {NOMINAL_QPS:g}/s, queue wait not scaled",
        scaled=True,
    )
    result.metric(
        "secondary_ms",
        median(route_ms),
        "ms",
        len(route_ms),
        f"route requests at the nominal rate, {ROUTE_MISS_SHARE:g} of them searches, "
        "queue wait not scaled",
        scaled=True,
    )
    lateness_ms = [o.lateness_s * 1e3 for o in outcomes]
    result.inputs["generator_lateness_ms"] = {
        "p50": median(lateness_ms),
        "p99": percentile(lateness_ms, 99.0),
        "max": max(lateness_ms),
    }
    result.inputs["nominal_latency_ms"] = {
        f"p{point:g}": percentile(nominal_ms, point)
        for point in (90.0, 95.0, 99.0, 99.9)
        if supported(len(nominal_ms), point)
    }
    result.inputs["setup_times_s"] = setup_times
    result.inputs["not_ok"] = {
        "nominal": sum(1 for o in outcomes if not o.ok),
        "saturation": len(saturated) - sum(saturated.ok),
    }
    result.inputs["saturation_answered_per_s"] = len(saturated) / saturated.elapsed_s
    result.inputs["goodput_segments_per_s"] = goodput

    if trace:
        values = breakdown.from_spans(recorder.spans)
        dispatched = [o for o in outcomes if o.ok]
        answered = [i for i in range(len(saturated)) if saturated.ok[i]]
        queue_ms = [o.queue_time_s * 1e3 for o in dispatched]
        queue_ms += [saturated.queue_time_s[i] * 1e3 for i in answered]
        values["frontend.admission.queue_wait_p50_ms"] = median(queue_ms)
        values["frontend.admission.queue_wait_p99_ms"] = percentile(queue_ms, 99.0)
        sent = len(outcomes) + len(saturated)
        values["frontend.shed_share"] = share(sent - len(queue_ms), sent)
        values["frontend.max_queue_depth"] = frontend_stats.max_queue_depth
        values["frontend.coalescer.batch_size_mean"] = mean(
            [o.batch_size for o in dispatched] + [saturated.batch_size[i] for i in answered]
        )
        values["loadgen.lateness_p99_ms"] = percentile(lateness_ms, 99.0)
        values["service.cache.evictions"] = (
            cache_after["result_cache"].evictions - cache_before["result_cache"].evictions
        )
        # Each answered request's time from due to answer, split into the
        # generator's lateness, the admission queue (including coalescer
        # linger) and the service call spans that cover the rest.
        coverage = root_coverage(recorder.spans)
        timings = [(o.due_s, o.submitted_s, o.queue_time_s, o.done_s) for o in dispatched] + [
            (saturated.sent_s[i], saturated.submitted_s[i], saturated.queue_time_s[i],
             saturated.done_s[i])
            for i in answered
        ]
        total = attributed = 0.0
        for due, submitted, queued, done in timings:
            total += done - due
            attributed += (submitted - due) + queued + coverage(submitted + queued, done)
        values["trace.unattributed_share"] = 1.0 - share(attributed, total)
        replay = [
            (a.lane, a.request, a.key)
            for a in itertools.islice(
                _saturation_arrivals(saturation, estimates, hot), OVERHEAD_REPLAY
            )
        ]
        chunks = [replay[i : i + 16] for i in range(0, len(replay), 16)]
        untraced_service = CostEstimationService.from_snapshot(snapshot_dir)
        traced_service = CostEstimationService.from_snapshot(snapshot_dir)
        values["trace.overhead_share"] = paired_overhead(
            chunks,
            lambda chunk: _serve_closed(untraced_service, chunk),
            lambda chunk: _serve_closed(traced_service, chunk),
        )
        result.layers = values
        result.recorder = recorder
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    return result
