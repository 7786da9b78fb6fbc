"""Per-layer metrics of a traced run, from its spans plus workload counters.

Every workload reports every per-layer metric that ``BENCHMARK.json``
declares: a layer the workload does not exercise reads 0, which is itself
the evidence (for example no decomposition-cache hits anywhere, or no map
matching while serving).

Self times are means per call in the unit named, except the build-phase
ones (``*_self_s``), which are totals per ``HybridGraphBuilder.build``.
``core.joint.jc_share`` is JC self time over the time the root spans
cover, so it is a share of the traced layer time on every workload.
"""

from __future__ import annotations

from . import layers
from .common import declared_metrics
from .spans import Span, self_times
from .stats import mean, share

def _named(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def from_spans(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric the spans alone determine (0 where a layer is idle)."""
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}

    def self_mean(name: str) -> float:
        return mean(own[span.span_id] for span in _named(spans, name))

    def parent_name(span: Span) -> str | None:
        parent = by_id.get(span.parent_id)
        return None if parent is None else parent.name

    values = dict.fromkeys(declared_metrics("per_layer"), 0.0)
    oi = _named(spans, layers.OI)
    values["core.decomposition.oi_self_ms"] = self_mean(layers.OI) * 1e3
    values["core.decomposition.elements"] = mean(s.attrs["elements"] for s in oi)
    values["core.decomposition.max_rank"] = mean(s.attrs["max_rank"] for s in oi)
    values["core.joint.jc_self_ms"] = self_mean(layers.JC) * 1e3
    root_time = sum(span.duration for span in spans if span.parent_id is None)
    jc_total = sum(own[span.span_id] for span in _named(spans, layers.JC))
    values["core.joint.jc_share"] = share(jc_total, root_time)
    values["core.marginal.mc_self_ms"] = self_mean(layers.MC) * 1e3

    # Client estimate requests: single submits, and batches not issued by a
    # route search (those are the routing engine's own estimate lookups).
    submits = _named(spans, layers.SUBMIT)
    batches = _named(spans, layers.SUBMIT_BATCH)
    client_batches = [b for b in batches if parent_name(b) != layers.ROUTE]
    engine_batches = [b for b in batches if parent_name(b) == layers.ROUTE]
    n_requests = len(submits) + sum(b.attrs["n"] for b in client_batches)
    n_hits = sum(s.attrs["source"] == "result-cache" for s in submits) + sum(
        b.attrs["hits"] for b in client_batches
    )
    n_decomposition_hits = sum(
        s.attrs["source"] == "decomposition-cache" for s in submits
    ) + sum(b.attrs["decomposition_hits"] for b in client_batches)
    values["service.cache.result_hit_share"] = share(n_hits, n_requests)
    values["service.cache.decomposition_hit_share"] = share(n_decomposition_hits, n_requests)
    hit_spans = [s for s in submits if s.attrs["source"] == "result-cache"] + [
        b for b in client_batches if b.attrs["n"] and b.attrs["hits"] == b.attrs["n"]
    ]
    hit_count = sum(s.attrs.get("n", 1) for s in hit_spans)
    values["service.cache.hit_us"] = share(sum(s.duration for s in hit_spans), hit_count) * 1e6

    routes = _named(spans, layers.ROUTE)
    computed_routes = [r for r in routes if r.attrs["source"] == "computed"]
    values["service.route_cache.hit_share"] = share(
        sum(r.attrs["source"] == "route-cache" for r in routes), len(routes)
    )
    values["routing.engine.route_self_ms"] = mean(own[r.span_id] for r in computed_routes) * 1e3
    values["routing.engine.paths_evaluated"] = mean(
        r.attrs["paths_evaluated"] for r in computed_routes
    )
    values["routing.engine.truncated_share"] = share(
        sum(bool(r.attrs["truncated"]) for r in computed_routes), len(computed_routes)
    )
    values["routing.engine.estimate_hit_share"] = share(
        sum(b.attrs["hits"] for b in engine_batches), sum(b.attrs["n"] for b in engine_batches)
    )

    matches = _named(spans, layers.MATCH)
    values["trajectories.mapmatching.match_ms_per_traj"] = mean(m.duration for m in matches) * 1e3
    values["trajectories.mapmatching.points_per_s"] = share(
        sum(m.attrs["points"] for m in matches), sum(m.duration for m in matches)
    )
    values["trajectories.mutable.append_us"] = mean(
        a.duration for a in _named(spans, layers.APPEND)
    ) * 1e6

    builds = _named(spans, layers.BUILD)
    values["core.instantiation.build_s"] = mean(b.duration for b in builds)
    values["core.instantiation.variables"] = mean(b.attrs["variables"] for b in builds)
    for metric, name in (
        ("trajectories.store.scan_self_s", layers.SCAN),
        ("histograms.autobuckets.cv_self_s", layers.AUTOBUCKETS),
        ("histograms.vopt.self_s", layers.VOPT),
        ("histograms.multivariate.from_samples_self_s", layers.FROM_SAMPLES),
    ):
        values[metric] = share(sum(own[s.span_id] for s in _named(spans, name)), len(builds))

    values["service.rebase_ms"] = mean(r.duration for r in _named(spans, layers.REBASE)) * 1e3
    values["persist.reader.restore_s"] = mean(r.duration for r in _named(spans, layers.RESTORE))
    values["persist.writer.delta_save_s"] = mean(s.duration for s in _named(spans, layers.SAVE))
    return values
