"""``serve-cold``: one closed-loop client, every request a cache miss.

Set-up is a cold ``HybridGraphBuilder.build`` of the full store plus
service construction, repeated :data:`SETUP_REPEATS` times (the median is
reported; the last build serves).  The client then submits distinct
``(path, alpha-interval)`` keys one at a time through
``CostEstimationService.submit``.

Latency grows steeply with path length (joint propagation) and with the
support behind the path, so the key list fixes both mixes: a length
``L`` in 2..20 has weight ``40 / (L - 1)`` (the share a sub-path of
uniformly random length taken from a trip would have), lengths are
interleaved so every prefix of the list follows those weights, and within
a length the keys cycle through eight bins of support.  The seed picks
the keys inside each stratum.

The list is answered in passes of :data:`PASS_KEYS` consecutive keys,
each pass the same mix, until ``--seconds`` have passed (whole passes
only, at least :data:`MIN_PASSES`).  Each metric is taken per pass and the
median over passes reported, so a burst of load from elsewhere on the
host moves one pass and not the result.  Times are scaled to the host's
speed (:mod:`perfbench.hostspeed`), sampled before the first build and
after every build and every :data:`CHUNK_KEYS` requests.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import CostEstimationService, EstimateRequest, PathCostEstimator, TrajectoryStore

from . import breakdown, inputs, layers
from .common import Digest, RunResult, check_repeatable_digest, peak_rss_mib, same_histogram
from .common import paired_overhead
from .hostspeed import Calibration
from .spans import SpanRecorder, unattributed_share
from .stats import mean, median, percentile

SETUP_REPEATS = 3
LENGTH_WEIGHTS = {length: round(40 / (length - 1)) for length in range(2, 21)}
SUPPORT_BINS = 8
#: Keys per pass, and the fewest passes a run makes: two passes support
#: the p99 reported over every answer (10 samples beyond it).  The host's
#: speed is sampled after every chunk of keys.
PASS_KEYS, CHUNK_KEYS = 500, 50
MIN_PASSES = 2
TAIL_POINT = 99.0
#: Distinct keys generated; a run stops after ``--seconds`` well before this.
POOL = 6000
#: ``secondary_ms`` is the mean latency over paths this long and longer,
#: where joint propagation dominates.
LONG_PATH = 10
#: Answers re-estimated directly; the digest covers the first answers.
CHECK_SHORT, CHECK_LONG, CHECK_SHORT_MAX_LENGTH = 24, 2, 12
DIGEST_PREFIX = MIN_PASSES * PASS_KEYS
#: Keys replayed untraced to estimate tracing overhead.
OVERHEAD_REPLAY = 150


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult("serve-cold", seed)
    data = inputs.dataset()
    store = TrajectoryStore(data.trajectories)
    rng = np.random.default_rng(seed)
    keys = inputs.stratified_keys(
        data.trajectories,
        rng,
        inputs.weighted_schedule(LENGTH_WEIGHTS, POOL),
        data.alpha_minutes,
        bins=SUPPORT_BINS,
    )
    requests = [EstimateRequest(key.path, key.departure_s) for key in keys]

    recorder = SpanRecorder() if trace else None
    patcher = layers.install(recorder) if trace else None
    calibration = Calibration()
    windows = []
    setup_times, raw_setup_times = [], []
    # The first build checks the answers of the last, which serves; builds
    # in between are dropped so the heap while serving holds two graphs.
    check_graph = None
    before = calibration.sample()
    for _ in range(1 if trace else SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        graph = data.builder().build(store)
        service = CostEstimationService(PathCostEstimator(graph))
        ended = time.perf_counter()
        after = calibration.sample()
        windows.append((started, ended))
        raw_setup_times.append(ended - started)
        setup_times.append((ended - started) / ((before + after) / 2))
        before = after
        if check_graph is None:
            check_graph = graph
    result_cache_before = service.stats()["result_cache"]
    gc.collect()

    # Each chunk of requests is scaled by the host-speed samples on either side.
    latencies, scaled, responses, pass_seconds = [], [], [], []
    before = calibration.sample()
    started = time.perf_counter()
    while len(pass_seconds) < MIN_PASSES or time.perf_counter() - started < seconds:
        if len(responses) + PASS_KEYS > len(requests):
            raise RuntimeError(f"{len(requests)} keys ran out after {len(pass_seconds)} passes")
        pass_seconds.append(0.0)
        for _chunk in range(PASS_KEYS // CHUNK_KEYS):
            chunk = []
            chunk_started = time.perf_counter()
            for request in requests[len(responses) : len(responses) + CHUNK_KEYS]:
                sent = time.perf_counter()
                response = service.submit(request)
                chunk.append(time.perf_counter() - sent)
                responses.append(response)
            chunk_ended = time.perf_counter()
            after = calibration.sample()
            host = (before + after) / 2
            before = after
            windows.append((chunk_started, chunk_ended))
            latencies += chunk
            scaled += [latency / host for latency in chunk]
            pass_seconds[-1] += (chunk_ended - chunk_started) / host
    if trace:
        patcher.restore()

    n = len(responses)
    answered = keys[:n]
    lengths = [len(key.edge_ids) for key in answered]
    result.attempted = n
    result.failed = sum(1 for r in responses if r.source != "computed")
    result.inputs = {
        "keys_generated": len(keys),
        "keys_answered": n,
        "path_length_quantiles": inputs.quantiles(lengths),
        "distinct_keys_vs_result_cache_capacity": [n, service.parameters.result_cache_capacity],
        "distinct_keys_vs_decomposition_cache_capacity": [
            n,
            service.parameters.decomposition_cache_capacity,
        ],
        "setup_repeats": len(setup_times),
        "passes": len(pass_seconds),
        "keys_per_pass": PASS_KEYS,
    }

    result.check("every request missed every cache", result.failed == 0, f"{result.failed} not computed")
    estimator = PathCostEstimator(check_graph)
    short = [i for i in range(n) if lengths[i] <= CHECK_SHORT_MAX_LENGTH][:CHECK_SHORT]
    long = [i for i in range(n) if lengths[i] >= 15][:CHECK_LONG]
    mismatches = [
        i
        for i in short + long
        if not same_histogram(
            estimator.estimate(answered[i].path, answered[i].departure_s).histogram,
            responses[i].estimate.histogram,
        )
    ]
    result.check(
        "answers bit-identical to PathCostEstimator.estimate on a sample"
        + (" of another build" if check_graph is not graph else ""),
        not mismatches,
        f"{len(short) + len(long)} compared, mismatched indices {mismatches[:5]}",
    )
    digest = Digest()
    for key, response in zip(answered[:DIGEST_PREFIX], responses):
        digest.add_histogram((key.edge_ids, key.departure_s), response.estimate.histogram)
    check_repeatable_digest(result, f"first {DIGEST_PREFIX} answers", digest)

    latencies_ms = [value * 1e3 for value in scaled]
    passes = [range(i, i + PASS_KEYS) for i in range(0, n, PASS_KEYS)]
    per_pass = f"median over {len(passes)} passes of {PASS_KEYS} keys"
    result.inputs["host_speed_factor"] = calibration.summary()
    result.inputs["unscaled"] = {
        "setup_s": median(raw_setup_times),
        "p50_ms": median(latencies) * 1e3,
        "queries_per_s": n / sum(latencies),
    }
    result.metric("setup_s", median(setup_times), "s", len(setup_times), scaled=True)
    result.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1)
    result.metric(
        "throughput_per_s",
        median(PASS_KEYS / elapsed for elapsed in pass_seconds),
        "1/s",
        n,
        f"distinct cold queries per second, {per_pass}",
        scaled=True,
    )
    result.metric(
        "latency_p50_ms",
        median(median(latencies_ms[i] for i in keys_of) for keys_of in passes),
        "ms",
        n,
        f"p50, {per_pass}",
        scaled=True,
    )
    result.metric(
        "latency_tail_ms",
        percentile(latencies_ms, TAIL_POINT),
        "ms",
        n,
        f"p{TAIL_POINT:g} over every answer",
        scaled=True,
    )
    result.metric(
        "secondary_ms",
        median(
            mean(latencies_ms[i] for i in keys_of if lengths[i] >= LONG_PATH) for keys_of in passes
        ),
        "ms",
        sum(1 for length in lengths if length >= LONG_PATH),
        f"mean over paths of >= {LONG_PATH} edges, {per_pass}",
        scaled=True,
    )
    result.inputs["pass_seconds"] = pass_seconds

    if trace:
        values = breakdown.from_spans(recorder.spans)
        evictions = service.stats()["result_cache"].evictions - result_cache_before.evictions
        values["service.cache.evictions"] = evictions
        untraced_service = CostEstimationService(PathCostEstimator(graph))
        traced_service = CostEstimationService(PathCostEstimator(graph))
        values["trace.overhead_share"] = paired_overhead(
            requests[: min(n, OVERHEAD_REPLAY)],
            lambda request: untraced_service.submit(request),
            lambda request: traced_service.submit(request),
        )
        values["trace.unattributed_share"] = unattributed_share(recorder.spans, windows)
        result.layers = values
        result.recorder = recorder
    return result
