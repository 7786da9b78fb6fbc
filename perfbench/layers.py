"""Span wrappers around the public entry points of each layer.

:func:`install` replaces each entry point with a span-recording wrapper
where callers look it up: methods on their class, and module functions in
the module that calls them (``propagate_joint`` is looked up in
``repro.core.estimator``, ``build_auto_histogram`` and
``v_optimal_boundaries`` in ``repro.core.instantiation`` and
``repro.histograms.autobuckets``).  The returned :class:`Patcher` puts the
originals back.
"""

from __future__ import annotations

import repro.core.estimator as core_estimator
import repro.core.instantiation as core_instantiation
import repro.histograms.autobuckets as autobuckets
from repro import (
    CostEstimationService,
    HMMMapMatcher,
    HybridGraphBuilder,
    MultiHistogram,
    MutableTrajectoryStore,
    PathCostEstimator,
    TrajectoryIngestPipeline,
    TrajectoryStore,
)
from repro.core.joint import PropagatedJoint

from .spans import Patcher, SpanRecorder

# Span names, one per layer entry point.
SUBMIT = "service.submit"
SUBMIT_BATCH = "service.submit_batch"
ROUTE_BATCH = "service.route_batch"
ROUTE = "service.route"
REBASE = "service.rebase"
OI = "core.decomposition"
JC = "core.joint"
MC = "core.marginal"
BUILD = "core.instantiation"
SCAN = "trajectories.store.scan"
AUTOBUCKETS = "histograms.autobuckets"
VOPT = "histograms.vopt"
FROM_SAMPLES = "histograms.multivariate"
MATCH = "trajectories.mapmatching"
APPEND = "trajectories.mutable.append"
INGEST_BATCH = "ingest.batch"
REFRESH = "ingest.refresh"
SAVE = "persist.writer"
RESTORE = "persist.reader"


def _submit_attrs(response, _args, _kwargs) -> dict:
    return {"source": response.source}


def _batch_attrs(responses, _args, _kwargs) -> dict:
    return {
        "n": len(responses),
        "hits": sum(1 for r in responses if r.source == "result-cache"),
        "decomposition_hits": sum(1 for r in responses if r.source == "decomposition-cache"),
        "computed": sum(1 for r in responses if r.source == "computed"),
    }


def _route_attrs(response, _args, _kwargs) -> dict:
    return {
        "source": response.source,
        "paths_evaluated": response.result.paths_evaluated,
        "truncated": response.result.truncated,
    }


def _decomposition_attrs(decomposition, _args, _kwargs) -> dict:
    elements = decomposition.elements
    return {"elements": len(elements), "max_rank": max(e.rank for e in elements)}


def _build_attrs(graph, _args, _kwargs) -> dict:
    return {"variables": graph.num_variables()}


def _rebase_attrs(report, _args, _kwargs) -> dict:
    return {"invalidated": len(report.result_keys)}


def _match_attrs(matched, args, _kwargs) -> dict:
    return {"points": len(args[1]), "edges": matched.edge_ids}


def _append_attrs(dirty, _args, _kwargs) -> dict:
    return {"dirty": len(dirty)}


def _wrap_method(patcher, recorder, owner, attribute, name, annotate=None) -> None:
    patcher.replace(owner, attribute, recorder.wrap(owner.__dict__[attribute], name, annotate))


def _wrap_classmethod(patcher, recorder, owner, attribute, name) -> None:
    function = owner.__dict__[attribute].__func__
    patcher.replace(owner, attribute, classmethod(recorder.wrap(function, name)))


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every layer entry point; return the patcher that undoes it."""
    patcher = Patcher()
    service = CostEstimationService
    _wrap_method(patcher, recorder, service, "submit", SUBMIT, _submit_attrs)
    _wrap_method(patcher, recorder, service, "submit_batch", SUBMIT_BATCH, _batch_attrs)
    _wrap_method(patcher, recorder, service, "route_batch", ROUTE_BATCH)
    _wrap_method(patcher, recorder, service, "route", ROUTE, _route_attrs)
    _wrap_method(patcher, recorder, service, "rebase", REBASE, _rebase_attrs)
    _wrap_classmethod(patcher, recorder, service, "from_snapshot", RESTORE)
    _wrap_method(
        patcher, recorder, PathCostEstimator, "select_decomposition", OI, _decomposition_attrs
    )
    _wrap_method(patcher, recorder, core_estimator, "propagate_joint", JC)
    _wrap_method(patcher, recorder, PropagatedJoint, "cost_histogram", MC)
    _wrap_method(patcher, recorder, HybridGraphBuilder, "build", BUILD, _build_attrs)
    _wrap_method(patcher, recorder, TrajectoryStore, "observations_by_interval", SCAN)
    _wrap_method(patcher, recorder, TrajectoryStore, "frequent_subpath_counts", SCAN)
    _wrap_method(patcher, recorder, core_instantiation, "build_auto_histogram", AUTOBUCKETS)
    _wrap_method(patcher, recorder, core_instantiation, "v_optimal_boundaries", VOPT)
    _wrap_method(patcher, recorder, autobuckets, "v_optimal_boundaries", VOPT)
    _wrap_classmethod(patcher, recorder, MultiHistogram, "from_samples", FROM_SAMPLES)
    _wrap_method(patcher, recorder, HMMMapMatcher, "match", MATCH, _match_attrs)
    _wrap_method(patcher, recorder, MutableTrajectoryStore, "append", APPEND, _append_attrs)
    pipeline = TrajectoryIngestPipeline
    _wrap_method(patcher, recorder, pipeline, "ingest_batch", INGEST_BATCH)
    _wrap_method(patcher, recorder, pipeline, "refresh", REFRESH)
    _wrap_method(patcher, recorder, pipeline, "save_snapshot", SAVE)
    return patcher
