"""Reference pin for the integer-keyed grouping of joint propagation (Eq. 2).

The propagation groups factor and state cells by their separator bucket
combination through integer grid codes.  This module keeps a test-local
copy of the row-sorting grouping it replaced -- ``np.unique`` over rounded
float separator bounds, ``np.unique(axis=0)`` over index rows -- and
asserts that both give bit-identical cells, entropies and deduplicated
histograms (max |diff| = 0).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EstimatorParameters,
    HybridGraphBuilder,
    MultiHistogram,
    Path,
    PathCostEstimator,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)
from repro.core import joint as joint_module
from repro.core.decomposition import Decomposition
from repro.core.joint import decomposition_entropy, propagate_joint
from repro.core.relevance import RelevantVariable
from repro.core.variables import InstantiatedVariable
from repro.histograms import kernels
from repro.histograms.multivariate import _deduplicate_cells
from repro.timeutil import interval_of

INTERVAL = interval_of(8 * 3600.0, 30)
_MIN_WIDTH = 1e-9
_PRUNE = 1e-9


# ---------------------------------------------------------------------- #
# Reference: grouping by sorted rows
# ---------------------------------------------------------------------- #
def reference_deduplicate(indices, probs):
    unique, inverse = np.unique(indices, axis=0, return_inverse=True)
    summed = np.zeros(unique.shape[0])
    np.add.at(summed, np.asarray(inverse).ravel(), probs)
    return unique, summed


def _bounds(joint, dims):
    lows = np.zeros((joint.n_hyper_buckets(), len(dims)))
    highs = np.zeros((joint.n_hyper_buckets(), len(dims)))
    for column, dim in enumerate(dims):
        edges = np.asarray(joint.boundaries_of(dim))
        index = joint.cell_indices[:, joint.axis_of(dim)]
        lows[:, column], highs[:, column] = edges[index], edges[index + 1]
    return lows, highs


def _prune(prob):
    keep = prob > _PRUNE
    if not np.any(keep):
        keep = prob > 0.0
    return keep


def _step(state, factor, sep_next):
    agg_low, agg_high, sep_low, sep_high, prob, sep_prev = state
    factor_prob = np.asarray(factor.cell_probabilities, dtype=float)
    n_state = prob.shape[0]
    if not sep_prev and not sep_next:
        low, high = _bounds(factor, list(factor.dims))
        new_prob = (prob[:, None] * factor_prob[None, :]).reshape(-1)
        keep = _prune(new_prob)
        new_prob = new_prob[keep]
        n = new_prob.shape[0]
        return (
            (agg_low[:, None] + low.sum(axis=1)[None, :]).reshape(-1)[keep],
            (agg_high[:, None] + high.sum(axis=1)[None, :]).reshape(-1)[keep],
            np.zeros((n, 0)), np.zeros((n, 0)), new_prob / new_prob.sum(), (),
        )
    if sep_prev:
        axes = [factor.axis_of(dim) for dim in sep_prev]
        keys, group_id = np.unique(
            np.asarray(factor.cell_indices)[:, axes], axis=0, return_inverse=True
        )
        group_id = np.asarray(group_id).ravel()
        group_mass = np.zeros(keys.shape[0])
        np.add.at(group_mass, group_id, factor_prob)
        weights = np.ones((n_state, keys.shape[0]))
        for column, dim in enumerate(sep_prev):
            edges = np.asarray(factor.boundaries_of(dim))
            g_low, g_high = edges[keys[:, column]], edges[keys[:, column] + 1]
            s_low, s_high = sep_low[:, column][:, None], sep_high[:, column][:, None]
            overlap = np.clip(
                np.minimum(s_high, g_high[None, :]) - np.maximum(s_low, g_low[None, :]), 0.0, None
            )
            weights *= overlap / np.maximum(s_high - s_low, _MIN_WIDTH)
        totals = weights.sum(axis=1, keepdims=True)
        fallback = (group_mass / group_mass.sum())[None, :]
        weights = np.where(totals > 0.0, weights / np.maximum(totals, _MIN_WIDTH), fallback)
        released = np.array([dim not in sep_next for dim in sep_prev], dtype=bool)
        agg_low = agg_low + sep_low[:, released].sum(axis=1)
        agg_high = agg_high + sep_high[:, released].sum(axis=1)
    else:
        group_id = np.zeros(factor_prob.shape[0], dtype=int)
        group_mass = np.array([1.0])
        weights = np.ones((n_state, 1))
    conditional = factor_prob / group_mass[group_id]
    new_prob = ((prob[:, None] * weights[:, group_id]) * conditional[None, :]).reshape(-1)
    release = [d for d in factor.dims if d not in sep_prev and d not in sep_next]
    r_low, r_high = _bounds(factor, release)
    n_low, n_high = _bounds(factor, list(sep_next))
    keep = _prune(new_prob)
    new_prob = new_prob[keep]
    return (
        (agg_low[:, None] + r_low.sum(axis=1)[None, :]).reshape(-1)[keep],
        (agg_high[:, None] + r_high.sum(axis=1)[None, :]).reshape(-1)[keep],
        np.tile(n_low, (n_state, 1))[keep], np.tile(n_high, (n_state, 1))[keep],
        new_prob / new_prob.sum(), sep_next,
    )


def _consolidate(state, max_aggregate_buckets, max_state_cells):
    agg_low, agg_high, sep_low, sep_high, prob, sep_ids = state
    highs = np.maximum(agg_high, agg_low + _MIN_WIDTH)
    if sep_low.shape[1] == 0:
        if prob.shape[0] > max_aggregate_buckets:
            cells = kernels.rearrange(agg_low, highs, prob, normalize=False)
            agg_low, agg_high, prob = kernels.truncate_to_max_buckets(*cells, max_aggregate_buckets)
            sep_low = sep_high = np.zeros((prob.shape[0], 0))
    else:
        combined = np.concatenate([sep_low, sep_high], axis=1)
        _, labels = np.unique(np.round(combined, 9), axis=0, return_inverse=True)
        labels = np.asarray(labels).ravel()
        representative = np.zeros(int(labels.max()) + 1, dtype=np.int64)
        representative[labels[::-1]] = np.arange(labels.shape[0] - 1, -1, -1)
        agg_low, agg_high, prob, groups = kernels.grouped_rearrange_coarsen(
            agg_low, highs, prob, labels, max_aggregate_buckets
        )
        sep_low, sep_high = sep_low[representative[groups]], sep_high[representative[groups]]
    if prob.shape[0] > max_state_cells:
        order = np.argsort(prob)[::-1][:max_state_cells]
        agg_low, agg_high, prob = agg_low[order], agg_high[order], prob[order]
        sep_low, sep_high = sep_low[order], sep_high[order]
    return agg_low, agg_high, sep_low, sep_high, prob / prob.sum(), sep_ids


def reference_propagate(decomposition, max_aggregate_buckets=24, max_state_cells=4096):
    """The propagation with row-sorted grouping: (lows, highs, probs, cells processed)."""
    elements = decomposition.elements
    separators = decomposition.separators()

    def sep_after(index):
        if index >= len(elements) - 1 or separators[index] is None:
            return ()
        return separators[index].edge_ids

    first = elements[0].variable.joint()
    sep = sep_after(0)
    low, high = _bounds(first, [d for d in first.dims if d not in sep])
    s_low, s_high = _bounds(first, list(sep))
    state = (low.sum(axis=1), high.sum(axis=1), s_low, s_high,
             np.asarray(first.cell_probabilities, dtype=float).copy(), sep)
    processed = state[4].shape[0]
    state = _consolidate(state, max_aggregate_buckets, max_state_cells)
    for index in range(1, len(elements)):
        state = _step(state, elements[index].variable.joint(), sep_after(index))
        processed += state[4].shape[0]
        state = _consolidate(state, max_aggregate_buckets, max_state_cells)
    agg_low, agg_high, _, _, prob, _ = state
    keep = prob > 0.0
    highs = np.maximum(agg_high, agg_low + _MIN_WIDTH)
    return agg_low[keep], highs[keep], prob[keep], processed


def reference_entropy(decomposition):
    total = 0.0
    for element in decomposition.elements:
        total += element.variable.entropy()
    for later, separator in zip(decomposition.elements[1:], decomposition.separators()):
        if separator is None:
            continue
        joint = later.variable.joint()
        axes = [joint.axis_of(dim) for dim in separator.edge_ids]
        keys, probs = reference_deduplicate(joint.cell_indices[:, axes], joint.cell_probabilities)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        log_volumes = np.zeros(keys.shape[0])
        for column, axis in enumerate(axes):
            widths = np.diff(np.asarray(joint.boundaries_of(joint.dims[axis])))
            log_volumes += np.log(widths[keys[:, column]])
        total -= float(-np.sum(probs * (np.log(probs) - log_volumes)))
    return total


def assert_pinned(decomposition, **limits):
    propagated = propagate_joint(decomposition, **limits)
    lows, highs, probs, processed = reference_propagate(decomposition, **limits)
    for ours, theirs in ((propagated.cell_lows, lows), (propagated.cell_highs, highs),
                         (propagated.cell_probs, probs)):
        assert ours.shape == theirs.shape
        assert np.max(np.abs(ours - theirs)) == 0.0
    assert propagated.n_cells_processed == processed
    assert propagated.entropy == reference_entropy(decomposition)
    return propagated


# ---------------------------------------------------------------------- #
# The bench preset: 500 seeded decompositions of 2-20 edge paths
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench_preset():
    """The 8x8 bench city: 1000 trajectories (seed 7), beta 20, rank <= 5."""
    network = grid_network(8, 8, block_length_m=220.0, arterial_every=3, name="bench-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=1000, popular_route_count=10, seed=7)
    )
    trajectories = simulator.generate()
    builder = HybridGraphBuilder(network, EstimatorParameters(beta=20), max_cardinality=5)
    return trajectories, builder.build(TrajectoryStore(trajectories))


def test_bench_preset_decompositions_are_pinned(bench_preset):
    trajectories, graph = bench_preset
    estimator = PathCostEstimator(graph)
    rng = np.random.default_rng(20160)
    long_enough = [t for t in trajectories if len(t) >= 2]
    max_rank = 0
    for _ in range(500):
        trajectory = long_enough[int(rng.integers(len(long_enough)))]
        length = int(rng.integers(2, min(20, len(trajectory)) + 1))
        start = int(rng.integers(0, len(trajectory) - length + 1))
        path = Path(trajectory.edge_ids[start : start + length])
        departure = float(trajectory.traversals[start].entry_time_s)
        decomposition = estimator.select_decomposition(path, departure)
        max_rank = max(max_rank, decomposition.max_rank())
        assert_pinned(decomposition, max_aggregate_buckets=estimator.max_aggregate_buckets)
    assert max_rank >= 3


# ---------------------------------------------------------------------- #
# Generated chains: multi-edge shared separators, cap-pruned states
# ---------------------------------------------------------------------- #
def _joint(edge_ids, rng):
    n = int(rng.integers(20, 200))
    latent = rng.normal(0.0, 1.0, size=(n, 1))
    samples = 60.0 + 10.0 * (0.7 * latent + 0.7 * rng.normal(size=(n, len(edge_ids))))
    boundaries = []
    for column in samples.T:
        inner = np.sort(rng.uniform(column.min(), column.max(), size=int(rng.integers(1, 8))))
        boundaries.append(np.unique(np.concatenate([[column.min()], inner, [column.max() + 1e-6]])))
    distribution = MultiHistogram.from_samples(list(edge_ids), samples, boundaries)
    return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, distribution, support=n)


@st.composite
def chains(draw):
    """A decomposition of a corridor into overlapping or adjacent elements of rank 1-5."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_elements = draw(st.integers(1, 6))
    elements, start, end = [], 0, 0
    for index in range(n_elements):
        rank = draw(st.integers(1, 5))
        if index:
            overlap = draw(st.integers(0, min(rank - 1, end - start - 1, 3)))
            start = end - overlap
        edge_ids = tuple(range(start + 1, start + rank + 1))
        elements.append(RelevantVariable(_joint(edge_ids, rng), start))
        end = start + rank
    decomposition = Decomposition(Path(range(1, end + 1)), tuple(elements))
    limits = dict(
        max_aggregate_buckets=draw(st.integers(1, 32)),
        max_state_cells=draw(st.sampled_from([4, 16, 64, 4096])),
    )
    return decomposition, limits


@given(chains())
@settings(max_examples=150, deadline=None)
def test_generated_chains_are_pinned(chain):
    decomposition, limits = chain
    assert_pinned(decomposition, **limits)


def test_generated_chains_cover_shared_separators_and_the_cap():
    """The strategy reaches multi-edge separators and cap-pruned states."""
    rng = np.random.default_rng(3)
    elements = [
        RelevantVariable(_joint((1, 2, 3, 4), rng), 0),
        RelevantVariable(_joint((3, 4, 5, 6, 7), rng), 2),
        RelevantVariable(_joint((5, 6, 7, 8), rng), 4),
    ]
    decomposition = Decomposition(Path(range(1, 9)), tuple(elements))
    assert [len(s) for s in decomposition.separators()] == [2, 3]
    propagated = assert_pinned(decomposition, max_aggregate_buckets=32, max_state_cells=8)
    assert propagated.pruned_mass > 0.0


# ---------------------------------------------------------------------- #
# Cell deduplication and grouping
# ---------------------------------------------------------------------- #
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 40), min_size=1, max_size=6),
    st.integers(1, 300),
)
@settings(max_examples=100, deadline=None)
def test_deduplicate_cells_matches_row_sort(seed, shape, n_rows):
    rng = np.random.default_rng(seed)
    # Few distinct rows, drawn with replacement, unsorted: many duplicates.
    distinct = np.stack([rng.integers(0, size, size=max(n_rows // 3, 1)) for size in shape], axis=1)
    indices = distinct[rng.integers(0, distinct.shape[0], size=n_rows)].astype(np.int64)
    probs = rng.random(n_rows)
    ours = _deduplicate_cells(indices, probs, shape)
    theirs = reference_deduplicate(indices, probs)
    assert np.array_equal(ours[0], theirs[0])
    assert np.max(np.abs(ours[1] - theirs[1])) == 0.0


def test_deduplicate_cells_on_a_grid_too_large_for_int64_codes():
    rng = np.random.default_rng(5)
    shape = [1000] * 8  # 1e24 grid cells
    indices = rng.integers(0, 3, size=(400, 8)).astype(np.int64) * 333
    probs = rng.random(400)
    ours = _deduplicate_cells(indices, probs, shape)
    theirs = reference_deduplicate(indices, probs)
    assert np.array_equal(ours[0], theirs[0])
    assert np.max(np.abs(ours[1] - theirs[1])) == 0.0


def test_group_cells_labels_follow_sorted_keys():
    rng = np.random.default_rng(8)
    variable = _joint((1, 2, 3, 4), rng)
    joint = variable.joint()
    for dims in ([2], [3, 1], [1, 2, 4], [4, 3, 2, 1]):
        labels, keys = joint.group_cells(dims)
        axes = [joint.axis_of(dim) for dim in dims]
        expected_keys, expected_labels = np.unique(
            joint.cell_indices[:, axes], axis=0, return_inverse=True
        )
        assert np.array_equal(keys, expected_keys)
        assert np.array_equal(labels, np.asarray(expected_labels).ravel())


# ---------------------------------------------------------------------- #
# Pruned-mass accounting
# ---------------------------------------------------------------------- #
@given(chains())
@settings(max_examples=60, deadline=None)
def test_pruned_mass_is_bounded(chain):
    decomposition, limits = chain
    limits["max_state_cells"] = 10**9
    propagated = propagate_joint(decomposition, **limits)
    # With no cap, only cells below the threshold go.  A step's state holds
    # at most max_aggregate_buckets cells per separator group of the
    # previous factor, so it tries at most that many times its factor's cells.
    cells = [element.variable.joint().n_hyper_buckets() for element in decomposition.elements]
    tried = sum(limits["max_aggregate_buckets"] * a * b for a, b in zip(cells, cells[1:]))
    assert 0.0 <= propagated.pruned_mass <= tried * _PRUNE * (1 + 1e-9)


def test_pruned_mass_is_zero_without_a_threshold_or_cap(monkeypatch):
    rng = np.random.default_rng(11)
    elements = [
        RelevantVariable(_joint((1, 2, 3), rng), 0),
        RelevantVariable(_joint((3, 4, 5), rng), 2),
        RelevantVariable(_joint((6, 7), rng), 5),
    ]
    decomposition = Decomposition(Path(range(1, 8)), tuple(elements))
    monkeypatch.setattr(joint_module, "_PRUNE_THRESHOLD", 0.0)
    propagated = propagate_joint(decomposition, max_state_cells=10**9)
    assert propagated.pruned_mass == 0.0


def test_pruned_mass_counts_what_the_state_cap_drops():
    rng = np.random.default_rng(12)
    variable = _joint((1, 2, 3), rng)
    joint = variable.joint()
    assert joint.n_hyper_buckets() > 5
    decomposition = Decomposition(Path([1, 2, 3]), (RelevantVariable(variable, 0),))
    propagated = propagate_joint(decomposition, max_aggregate_buckets=10**6, max_state_cells=5)
    kept = np.sort(joint.cell_probabilities)[::-1][:5].sum()
    assert propagated.pruned_mass > 0.0
    assert propagated.pruned_mass == pytest.approx(1.0 - kept / joint.cell_probabilities.sum())
    assert decomposition_entropy(decomposition) == propagated.entropy


# ---------------------------------------------------------------------- #
# Regression guard: no row sorts on the estimate path
# ---------------------------------------------------------------------- #
def test_estimate_on_a_rank_five_chain_sorts_no_rows(monkeypatch):
    from repro import HybridGraph

    network = grid_network(7, 7, block_length_m=200.0, arterial_every=3)
    edges = [network.out_edges(0)[0]]
    visited = {edges[0].source, edges[0].target}
    while len(edges) < 9:
        edge = next(
            e for e in network.successors_of_edge(edges[-1].edge_id) if e.target not in visited
        )
        edges.append(edge)
        visited.add(edge.target)
    corridor = Path([edge.edge_id for edge in edges])
    graph = HybridGraph(network, EstimatorParameters())
    rng = np.random.default_rng(4)
    for start in range(0, 5):
        variable = _joint(corridor.edge_ids[start : start + 5], rng)
        graph.add_variable(variable)

    row_sorts = []
    unique = np.unique

    def counting_unique(array, *args, **kwargs):
        axis = kwargs.get("axis", args[3] if len(args) > 3 else None)
        if axis is not None:
            row_sorts.append(np.shape(array))
        return unique(array, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    estimate = PathCostEstimator(graph).estimate(corridor, 8 * 3600.0)
    assert estimate.decomposition.max_rank() == 5
    assert len(estimate.decomposition) >= 2
    assert row_sorts == []
