"""``ingest-refresh``: GPS batches through the ingest pipeline, reads beside writes.

The base store holds the first :data:`BASE_TRAJECTORIES` preset
trajectories; set-up is the initial ``HybridGraphBuilder.build`` over it
plus service construction (median of :data:`SETUP_REPEATS`).  Each batch
of raw GPS trajectories then goes through
``TrajectoryIngestPipeline.ingest_batch`` (HMM map matching, append, dirty
tracking and invalidation), ``refresh()`` (a rebuild of the hybrid graph
and a rebase of the service) and a delta ``save_snapshot()``, followed by
a fixed set of probe reads: sub-paths of the batch's trips, whose edges
the batch dirtied, and paths no trip in the stream touches.  The latency
metrics are over the dirty probes, which the refresh forces to recompute;
the clean ones should stay cached (``ingest.clean_probe_hit_share``).

The stream is a fixed set of simulated GPS trips, dealt into
:data:`BATCHES` batches of similar total GPS points, so each batch carries
about the same matching work.  Every batch starts from the base store:
before each one (untimed, untraced) a fresh store, service, matcher and
pipeline are made on the set-up graph, a full snapshot is written and the
clean probes are cached.  So every batch does the same work however many
ran before it; the run sends rounds of every batch, in the order the seed
picks, until ``--seconds`` have passed (whole rounds only), and the metrics
are medians over the batches sent.  Each
stage of a batch (ingest, refresh, snapshot, probes) and each set-up
build is scaled to the host's speed (:mod:`perfbench.hostspeed`), sampled
between stages.  The seed
picks the order of the batches and of the probes; it does not pick the
trips, because which trips a run ingests moves the read latency by a third.
"""

from __future__ import annotations

import gc
import shutil
import time

import numpy as np

from repro import (
    CostEstimationService,
    EstimateRequest,
    HMMMapMatcher,
    MutableTrajectoryStore,
    PathCostEstimator,
    TrajectoryIngestPipeline,
)

from . import breakdown, inputs, layers
from .common import (
    OUT_DIR,
    Digest,
    RunResult,
    check_repeatable_digest,
    directory_bytes,
    paired_overhead,
    peak_rss_mib,
    same_histogram,
)
from .hostspeed import Calibration
from .spans import SpanRecorder, unattributed_share
from .stats import mean, median, percentile, share

BASE_TRAJECTORIES = 500
SETUP_REPEATS = 3
#: Batches of GPS trajectories dealt from the stream; a run sends each of
#: them once per round.
BATCHES, BATCH_SIZE = 3, 15
#: Probes per refresh: dirty ones, every distinct sub-path key of the
#: batch's trips (a sample of them moved the read p50 by a tenth between
#: seeds), and clean ones from the base store on edges the stream never
#: touches.
CLEAN_PROBES = 15
DIRTY_LENGTHS, CLEAN_LENGTHS = (2, 4), (1, 3)
#: The dirty-probe latency tail reported; two batches of probes support it.
TAIL_POINT = 95.0
TRAJECTORY_ID_OFFSET = 1_000_000


def _clean_probes(base, stream_edges, rng, alpha_minutes):
    population = inputs.key_population(base, CLEAN_LENGTHS[0], CLEAN_LENGTHS[1], alpha_minutes)
    keys = [key for key, _support in population.values() if stream_edges.isdisjoint(key.edge_ids)]
    if len(keys) < CLEAN_PROBES:
        raise RuntimeError(f"only {len(keys)} probe paths avoid the GPS stream")
    return [keys[int(i)] for i in rng.choice(len(keys), size=CLEAN_PROBES, replace=False)]


def _edge_agreement(matched, truth) -> float:
    """Jaccard overlap of matched and ground-truth edge sets."""
    matched, truth = set(matched), set(truth)
    return len(matched & truth) / len(matched | truth)


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult("ingest-refresh", seed)
    data = inputs.dataset()
    base = data.trajectories[:BASE_TRAJECTORIES]
    gps_pool, truth_pool = data.simulator.generate_gps(BATCHES * BATCH_SIZE)
    rng = np.random.default_rng(seed)
    by_points = sorted(range(len(gps_pool)), key=lambda i: (len(gps_pool[i]), i))
    # Deal the trips out largest-first in a snake order over the batches.
    dealt = [[] for _ in range(BATCHES)]
    for rank, i in enumerate(by_points):
        lap, position = divmod(rank, BATCHES)
        dealt[position if lap % 2 == 0 else BATCHES - 1 - position].append(i)
    order = [i for b in rng.permutation(BATCHES) for i in dealt[b]]
    stream = [
        inputs.renumbered(gps_pool[i], TRAJECTORY_ID_OFFSET + n) for n, i in enumerate(order)
    ]
    truth = [truth_pool[i] for i in order]
    batches = [stream[i : i + BATCH_SIZE] for i in range(0, len(stream), BATCH_SIZE)]
    truth_batches = [truth[i : i + BATCH_SIZE] for i in range(0, len(truth), BATCH_SIZE)]
    stream_edges = {edge for trajectory in truth for edge in trajectory.edge_ids}
    clean = _clean_probes(base, stream_edges, rng, data.alpha_minutes)
    dirty = []
    for batch_truth in truth_batches:
        keys = [
            key
            for key, _support in inputs.key_population(
                batch_truth, DIRTY_LENGTHS[0], DIRTY_LENGTHS[1], data.alpha_minutes
            ).values()
        ]
        dirty.append([keys[int(i)] for i in rng.permutation(len(keys))])
    base_store = MutableTrajectoryStore(base)

    setup_times, graphs = [], []

    def setup(_unit=None):
        gc.collect()
        started = time.perf_counter()
        graph = data.builder().build(base_store.snapshot())
        # Only the last build serves; earlier ones are dropped.
        graphs[:] = [(graph, CostEstimationService(PathCostEstimator(graph)))]
        setup_times.append(time.perf_counter() - started)

    calibration = Calibration()
    overhead = None
    scaled_setup_times = []
    if trace:
        # The set-up builds double as the paired traced/untraced units.
        overhead = paired_overhead([0, 1], setup, setup)
    else:
        before = calibration.sample()
        for _ in range(SETUP_REPEATS):
            setup()
            after = calibration.sample()
            scaled_setup_times.append(setup_times[-1] / ((before + after) / 2))
            before = after
    base_graph = graphs[-1][0]
    clean_requests = [EstimateRequest(key.path, key.departure_s) for key in clean]
    persist_root = OUT_DIR / f"ingest-refresh-snapshots-{seed}"
    shutil.rmtree(persist_root, ignore_errors=True)

    def reset(index):
        """A pipeline on the base store and graph, snapshotted, clean probes cached."""
        shutil.rmtree(persist_root, ignore_errors=True)
        store = MutableTrajectoryStore(base)
        service = CostEstimationService(PathCostEstimator(base_graph))
        pipeline = TrajectoryIngestPipeline(
            store,
            matcher=HMMMapMatcher(data.network),
            service=service,
            builder_factory=data.builder,
            persist_dir=persist_root / f"batch-{index}",
        )
        pipeline.save_snapshot()
        for request in clean_requests:
            service.submit(request)
        gc.collect()
        return store, service, pipeline

    recorder = SpanRecorder() if trace else None
    records, windows = [], []
    started = time.perf_counter()
    while len(records) % BATCHES or time.perf_counter() - started < seconds:
        index = len(records) % BATCHES
        store, service, pipeline = reset(len(records))
        probes = [EstimateRequest(k.path, k.departure_s) for k in dirty[index]] + clean_requests
        cached_before = service.stats()["result_cache"].size
        # Each stage is timed on its own, with a host-speed sample between
        # stages, and scaled by the samples on either side.
        host = [calibration.sample()]
        patcher = layers.install(recorder) if trace else None
        try:
            stage_started = time.perf_counter()
            report = pipeline.ingest_batch(batches[index])
            windows.append((stage_started, time.perf_counter()))
            host.append(calibration.sample())
            stage_started = time.perf_counter()
            refresh = pipeline.refresh()
            windows.append((stage_started, time.perf_counter()))
            host.append(calibration.sample())
            stage_started = time.perf_counter()
            snapshot = pipeline.save_snapshot()
            windows.append((stage_started, time.perf_counter()))
            host.append(calibration.sample())
            latencies, responses = [], []
            stage_started = time.perf_counter()
            for request in probes:
                sent = time.perf_counter()
                responses.append(service.submit(request))
                latencies.append(time.perf_counter() - sent)
            windows.append((stage_started, time.perf_counter()))
            host.append(calibration.sample())
        finally:
            if trace:
                patcher.restore()
        scale = [(a + b) / 2 for a, b in zip(host, host[1:])]
        write = [end - begin for begin, end in windows[-4:-1]]
        write_s = sum(t / f for t, f in zip(write, scale))
        records.append(
            {
                "batch": index,
                "report": report,
                "refresh": refresh,
                "snapshot_bytes": directory_bytes(snapshot.path),
                "raw_write_s": sum(write),
                "write_s": write_s,
                "freshness_s": write_s + latencies[0] / scale[3],
                "latencies": [latency / scale[3] for latency in latencies],
                "probes": probes,
                # Only sources: the answers would hold every batch's
                # graph's histograms alive, and memory would grow with
                # the batches a run gets through.
                "sources": [response.source for response in responses],
                "cached_before": cached_before,
            }
        )

    accepted = [
        (item.matched, truth_batches[record["batch"]][i])
        for record in records
        for i, item in enumerate(record["report"].results)
        if item.accepted
    ]
    n_sent = sum(len(record["report"].results) for record in records)
    n_probes = sum(len(record["probes"]) for record in records)
    result.attempted = n_sent + n_probes
    result.failed = n_sent - len(accepted)
    dirty_sizes = [len(record["report"].dirty_edges) for record in records]
    result.inputs = {
        "base_trajectories": BASE_TRAJECTORIES,
        "batches": len(records),
        "batch_size": BATCH_SIZE,
        "gps_points_per_batch": [sum(len(t) for t in batches[r["batch"]]) for r in records],
        "dirty_edges_per_batch": dirty_sizes,
        "probes_per_refresh": {"dirty": [len(keys) for keys in dirty], "clean": CLEAN_PROBES},
        "probe_path_length_quantiles": inputs.quantiles(
            len(request.path) for record in records for request in record["probes"]
        ),
        "setup_repeats": len(setup_times),
    }

    # Checks (``store`` and ``responses`` are the last batch's).
    final = PathCostEstimator(data.builder().build(store.snapshot()))
    last = records[-1]
    differing = [
        i
        for i, (request, response) in enumerate(zip(last["probes"], responses))
        if not same_histogram(
            final.estimate(request.path, request.departure_time_s).histogram,
            response.estimate.histogram,
        )
    ]
    result.check(
        "probe answers after the last refresh equal a cold rebuild of the final store",
        not differing,
        f"{len(last['probes'])} probes, differing {differing[:5]}",
    )
    digest = Digest()
    for record in records[:BATCHES]:
        for item in record["report"].results:
            digest.add_value(item.matched.edge_ids if item.accepted else None)
    check_repeatable_digest(result, f"matched edges of the first {BATCHES} batches", digest)

    # End-to-end metrics.
    # Reads the refresh forced to recompute (a dirty probe whose trip was
    # matched off its true edges can still be a cache hit).
    probe_ms = [
        latency * 1e3
        for record in records
        for latency, source in zip(record["latencies"], record["sources"][:-CLEAN_PROBES])
        if source == "computed"
    ]
    result.inputs["host_speed_factor"] = calibration.summary()
    result.inputs["unscaled"] = {
        "setup_s": median(setup_times),
        "traj_per_s": median(
            sum(item.accepted for item in record["report"].results) / record["raw_write_s"]
            for record in records
        ),
    }
    result.metric("setup_s", median(scaled_setup_times), "s", len(setup_times), scaled=True)
    result.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1)
    result.metric(
        "throughput_per_s",
        median(
            sum(item.accepted for item in record["report"].results) / record["write_s"]
            for record in records
        ),
        "1/s",
        len(accepted),
        "trajectories answerable per second of match + append + refresh + snapshot, "
        f"median over {len(records)} batches",
        scaled=True,
    )
    result.metric(
        "latency_p50_ms",
        median(probe_ms),
        "ms",
        len(probe_ms),
        "recomputed dirty probe reads",
        scaled=True,
    )
    result.metric(
        "latency_tail_ms",
        percentile(probe_ms, TAIL_POINT),
        "ms",
        len(probe_ms),
        f"p{TAIL_POINT:g}",
        scaled=True,
    )
    result.metric(
        "secondary_ms",
        median(record["freshness_s"] * 1e3 for record in records),
        "ms",
        len(records),
        f"freshness: batch handed over to first probe answer, median over {len(records)} batches",
        scaled=True,
    )

    if trace:
        values = breakdown.from_spans(recorder.spans)
        values["trajectories.mapmatching.truth_edge_agreement"] = mean(
            _edge_agreement(matched.edge_ids, true.edge_ids) for matched, true in accepted
        )
        values["ingest.dirty_edges_per_batch"] = mean(dirty_sizes)
        invalidated = sum(
            len(record["refresh"].invalidation.result_keys)
            + (len(record["report"].invalidation.result_keys) if record["report"].invalidation else 0)
            for record in records
        )
        values["service.invalidated_share"] = share(
            invalidated, sum(record["cached_before"] for record in records)
        )
        clean_sources = [s for record in records for s in record["sources"][-CLEAN_PROBES:]]
        values["ingest.clean_probe_hit_share"] = share(
            sum(source == "result-cache" for source in clean_sources), len(clean_sources)
        )
        values["persist.writer.bytes_per_traj"] = share(
            sum(record["snapshot_bytes"] for record in records), len(accepted)
        )
        values["trace.overhead_share"] = overhead
        values["trace.unattributed_share"] = unattributed_share(recorder.spans, windows)
        result.layers = values
        result.recorder = recorder
    shutil.rmtree(persist_root, ignore_errors=True)
    return result
