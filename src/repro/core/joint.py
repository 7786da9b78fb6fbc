"""Estimating a query path's joint distribution from a decomposition (Section 4.1.2).

Given a decomposition ``DE = (P_1, ..., P_k)`` and the instantiated (joint)
distributions of its paths, Equation 2 estimates the query path's joint
distribution as the product of the element distributions divided by the
product of the distributions of the shared (separator) paths between
consecutive elements.

Materialising the full joint over a long query path would require a
hyper-bucket grid that grows exponentially with the path cardinality, so we
exploit the chain structure of decompositions (elements ordered along the
path, every separator shared only with the immediately preceding element):
the distribution of the *accumulated* cost is propagated left to right
together with the joint distribution over the current separator's edges.
This is the exact junction-tree elimination of the decomposable model of
Equation 2 under the uniform-within-bucket histogram semantics, with one
engineering addition: the accumulated-cost dimension is periodically
re-bucketed (the same rearrangement used in Section 4.2) so the cell count
stays bounded.  The state is held in ``numpy`` arrays so long corridors
with many overlapping high-rank variables stay fast.

Cells are grouped by integer keys, never by sorting rows.  A cell's group
on a set of separator edges is the C-order code of its bucket indices in
the factor's grid (:meth:`MultiHistogram.group_cells`), and such codes sort
like the index rows.  The state carries one separator-group label per cell
plus a small per-group table of bucket bounds, so overlap weights and the
cost of released separator edges are computed once per group and gathered,
and accumulated-cost bounds are formed only for the cells that survive
pruning.  The probability share pruned along the way is reported as
:attr:`PropagatedJoint.pruned_mass`.

The propagation corresponds to the paper's "JC" (joint computation) step in
the Figure 17 run-time breakdown; the final collapse into a one-dimensional
cost histogram lives in :mod:`repro.core.marginal` ("MC").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..exceptions import EstimationError
from ..histograms import kernels
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Bucket, Histogram1D
from .decomposition import Decomposition

#: Minimum width used when an accumulated-cost range is still degenerate.
_MIN_WIDTH = 1e-9

#: Cells with probability below this (after each step) are pruned.
_PRUNE_THRESHOLD = 1e-9


@dataclass
class _State:
    """Vectorised propagation state.

    ``agg_low`` / ``agg_high`` bound the accumulated cost of all edges whose
    cost has already been "released"; ``prob`` is the per-cell probability.
    ``group`` labels each cell's bucket combination on the current
    separator's edges (``sep_ids``), and row ``g`` of ``group_low`` /
    ``group_high`` holds the bucket bounds of combination ``g`` (columns
    aligned with ``sep_ids``).
    """

    agg_low: np.ndarray
    agg_high: np.ndarray
    prob: np.ndarray
    group: np.ndarray
    group_low: np.ndarray
    group_high: np.ndarray
    sep_ids: tuple[int, ...]

    @property
    def n_cells(self) -> int:
        return int(self.prob.shape[0])


@dataclass(frozen=True, eq=False)
class PropagatedJoint:
    """The result of propagating Equation 2 along a decomposition.

    The accumulated-cost cells are held as contiguous arrays
    (``cell_lows`` / ``cell_highs`` / ``cell_probs``); the object-level
    ``weighted_buckets`` view materialises :class:`Bucket` pairs on demand
    for paper-facing code.  Collapsed cost histograms are memoised per
    ``max_buckets``, so a batch of budget queries that share one cached
    decomposition runs the MC kernel exactly once.

    ``pruned_mass`` sums, over every renormalisation, the probability share
    dropped just before it (cells below the prune threshold and cells past
    the state-size cap): an upper bound on the mass the estimate lost, and
    equal to it to first order.
    """

    decomposition: Decomposition
    cell_lows: np.ndarray
    cell_highs: np.ndarray
    cell_probs: np.ndarray
    entropy: float
    n_cells_processed: int
    pruned_mass: float
    _collapse_cache: dict[int | None, Histogram1D] = field(
        default_factory=dict, repr=False, compare=False
    )

    @cached_property
    def weighted_buckets(self) -> tuple[tuple[Bucket, float], ...]:
        """Object-level ``(Bucket, probability)`` view of the cost cells.

        Materialised on first access and cached on the instance.
        """
        return tuple(
            (Bucket(float(low), float(high)), float(prob))
            for low, high, prob in zip(self.cell_lows, self.cell_highs, self.cell_probs)
        )

    @property
    def nbytes(self) -> int:
        """Actual bytes of the accumulated-cost cell arrays (true footprint)."""
        return int(self.cell_lows.nbytes + self.cell_highs.nbytes + self.cell_probs.nbytes)

    def cost_histogram(self, max_buckets: int | None = 64) -> Histogram1D:
        """Collapse into the path's univariate cost distribution (Section 4.2).

        The result is cached on the instance: re-collapsing a cached
        propagated joint (the estimation service's decomposition-cache hit
        path) is a dictionary lookup, not a kernel invocation.
        """
        cached = self._collapse_cache.get(max_buckets)
        if cached is None:
            from .marginal import collapse_cells_to_cost_histogram

            cached = collapse_cells_to_cost_histogram(
                self.cell_lows, self.cell_highs, self.cell_probs, max_buckets=max_buckets
            )
            self._collapse_cache[max_buckets] = cached
        return cached


def decomposition_entropy(decomposition: Decomposition) -> float:
    """The entropy ``H_DE`` of the estimated joint distribution (Theorem 2).

    ``H_DE = sum_i H(C_{P_i}) - sum_j H(C_{P_j ∩ P_{j+1}})`` where the
    separator entropies are taken from the marginal of the later element's
    joint distribution (consistent with the conditional factorisation used
    by the propagation).
    """
    total = 0.0
    for element in decomposition.elements:
        total += element.variable.entropy()
    for later_element, separator in zip(decomposition.elements[1:], decomposition.separators()):
        if separator is None:
            continue
        total -= _marginal_entropy(later_element.variable.joint(), separator.edge_ids)
    return total


def propagate_joint(
    decomposition: Decomposition,
    max_aggregate_buckets: int = 24,
    max_state_cells: int = 4096,
) -> PropagatedJoint:
    """Propagate Equation 2 along the decomposition and return the accumulated cost cells."""
    if max_aggregate_buckets < 1:
        raise EstimationError("max_aggregate_buckets must be >= 1")
    elements = decomposition.elements
    separators = decomposition.separators()
    n_elements = len(elements)

    state = _initial_state(elements[0].variable.joint(), _separator_ids(separators, 0, n_elements))
    n_cells_processed = state.n_cells
    state, pruned_mass = _consolidate(state, max_aggregate_buckets, max_state_cells)

    for index in range(1, n_elements):
        factor = elements[index].variable.joint()
        sep_next_ids = _separator_ids(separators, index, n_elements)
        state, step_pruned = _propagate_step(state, factor, sep_next_ids)
        n_cells_processed += state.n_cells
        state, cap_pruned = _consolidate(state, max_aggregate_buckets, max_state_cells)
        pruned_mass += step_pruned + cap_pruned

    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    keep = state.prob > 0.0
    if not np.any(keep):
        raise EstimationError("joint propagation produced no probability mass")
    return PropagatedJoint(
        decomposition=decomposition,
        cell_lows=state.agg_low[keep],
        cell_highs=highs[keep],
        cell_probs=state.prob[keep],
        entropy=decomposition_entropy(decomposition),
        n_cells_processed=n_cells_processed,
        pruned_mass=pruned_mass,
    )


# ---------------------------------------------------------------------- #
# Internals
# ---------------------------------------------------------------------- #
def _separator_ids(separators, index: int, n_elements: int) -> tuple[int, ...]:
    """Edge ids of the separator after element ``index`` (empty for the last element)."""
    if index >= n_elements - 1:
        return ()
    separator = separators[index]
    return separator.edge_ids if separator is not None else ()


def _marginal_entropy(joint: MultiHistogram, dims: tuple[int, ...]) -> float:
    """``joint.marginal(dims).entropy()``, from grouped masses, bit for bit."""
    labels, keys = joint.group_cells(dims)
    masses = np.bincount(labels, weights=joint.cell_probabilities, minlength=keys.shape[0])
    probs = masses / masses.sum()
    lows, highs = _bounds(joint, dims, keys)
    return float(-np.sum(probs * (np.log(probs) - np.log(highs - lows).sum(axis=1))))


def _bounds(joint: MultiHistogram, dims, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bucket lower/upper bounds of the index ``rows`` (columns aligned with ``dims``)."""
    lows, highs = np.empty(rows.shape), np.empty(rows.shape)
    for column, dim in enumerate(dims):
        edges = joint.boundaries_of(dim)
        lows[:, column], highs[:, column] = edges[rows[:, column]], edges[rows[:, column] + 1]
    return lows, highs


def _released_sums(joint: MultiHistogram, dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell sums of the bucket lower/upper bounds of the given dims."""
    rows = joint.cell_indices[:, [joint.axis_of(dim) for dim in dims]]
    lows, highs = _bounds(joint, dims, rows)
    return lows.sum(axis=1), highs.sum(axis=1)


def _separator_groups(joint: MultiHistogram, sep_ids: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Each cell's separator group, and every group's bucket bounds per separator edge."""
    if not sep_ids:
        return np.zeros(joint.n_hyper_buckets(), dtype=np.int64), np.zeros((1, 0)), np.zeros((1, 0))
    labels, keys = joint.group_cells(sep_ids)
    return (labels, *_bounds(joint, sep_ids, keys))


def _initial_state(joint: MultiHistogram, sep_ids: tuple[int, ...]) -> _State:
    """Turn the first element's joint histogram into the propagation state."""
    agg_low, agg_high = _released_sums(joint, [dim for dim in joint.dims if dim not in sep_ids])
    prob = np.asarray(joint.cell_probabilities, dtype=float).copy()
    return _State(agg_low, agg_high, prob, *_separator_groups(joint, sep_ids), sep_ids)


def _prune(new_prob: np.ndarray, n_factor_cells: int) -> tuple[np.ndarray, ...]:
    """Keep the (state cell, factor cell) pairs above the prune threshold.

    ``new_prob`` is the flattened ``(n_state, n_factor_cells)`` product.
    Returns the kept pairs' state rows and factor cells, their renormalised
    probabilities, and the probability share dropped.
    """
    keep = new_prob > _PRUNE_THRESHOLD
    if not np.any(keep):
        keep = new_prob > 0.0
    flat = np.flatnonzero(keep)
    if flat.size == 0:
        raise EstimationError("joint propagation lost all probability mass")
    kept = new_prob[flat]
    kept_mass = kept.sum()
    dropped = 0.0
    if flat.size < new_prob.size:
        dropped_mass = new_prob[~keep].sum()
        dropped = float(dropped_mass / (dropped_mass + kept_mass))
    rows, cols = np.divmod(flat, n_factor_cells)
    return rows, cols, kept / kept_mass, dropped


def _propagate_step(
    state: _State,
    factor: MultiHistogram,
    sep_next_ids: tuple[int, ...],
) -> tuple[_State, float]:
    """Absorb one more decomposition element; also returns the probability share pruned."""
    sep_prev_ids = state.sep_ids
    sep_prev_set = set(sep_prev_ids)
    sep_next_set = set(sep_next_ids)

    factor_prob = np.asarray(factor.cell_probabilities, dtype=float)

    # Group the factor's cells by their bucket indices on the previous
    # separator's dimensions; the group masses are the denominators of Eq. 2.
    # A step without one (disjoint consecutive elements, the dominant case
    # on sparse graphs) is an independent convolution.
    if sep_prev_ids:
        factor_group, group_keys = factor.group_cells(sep_prev_ids)
        group_mass = np.bincount(factor_group, weights=factor_prob, minlength=group_keys.shape[0])
        conditional = factor_prob / group_mass[factor_group]

        # Overlap weights between the state's separator groups and the
        # factor's: shape (n_state_groups, n_factor_groups).
        weights = np.ones((state.group_low.shape[0], group_keys.shape[0]))
        factor_lows, factor_highs = _bounds(factor, sep_prev_ids, group_keys)
        for column in range(len(sep_prev_ids)):
            group_low, group_high = factor_lows[:, column], factor_highs[:, column]
            state_low = state.group_low[:, column][:, None]
            state_high = state.group_high[:, column][:, None]
            overlap = np.clip(
                np.minimum(state_high, group_high[None, :]) - np.maximum(state_low, group_low[None, :]),
                0.0,
                None,
            )
            widths = np.maximum(state_high - state_low, _MIN_WIDTH)
            weights *= overlap / widths
        row_totals = weights.sum(axis=1, keepdims=True)
        fallback = (group_mass / group_mass.sum())[None, :]
        weights = np.where(row_totals > 0.0, weights / np.maximum(row_totals, _MIN_WIDTH), fallback)

        # Probability of each (state cell, factor cell) combination.
        combined_prob = weights[:, factor_group][state.group]
        combined_prob *= state.prob[:, None]
        combined_prob *= conditional[None, :]

        # Released separator edges' cost, once per state group.
        released = np.array([dim not in sep_next_set for dim in sep_prev_ids], dtype=bool)
        state_release_low = state.agg_low + state.group_low[:, released].sum(axis=1)[state.group]
        state_release_high = state.agg_high + state.group_high[:, released].sum(axis=1)[state.group]
    else:
        combined_prob = np.multiply.outer(state.prob, factor_prob)
        state_release_low = state.agg_low
        state_release_high = state.agg_high

    factor_release_dims = [
        dim for dim in factor.dims if dim not in sep_prev_set and dim not in sep_next_set
    ]
    factor_release_low, factor_release_high = _released_sums(factor, factor_release_dims)
    next_group, next_low, next_high = _separator_groups(factor, sep_next_ids)

    rows, cols, prob, dropped = _prune(combined_prob.reshape(-1), factor_prob.shape[0])
    return _State(
        state_release_low[rows] + factor_release_low[cols],
        state_release_high[rows] + factor_release_high[cols],
        prob, next_group[cols], next_low, next_high, sep_next_ids,
    ), dropped


def _consolidate(
    state: _State, max_aggregate_buckets: int, max_state_cells: int
) -> tuple[_State, float]:
    """Bound the state size by re-bucketing the accumulated-cost dimension.

    Cells are grouped by their separator bucket combination; every group's
    accumulated-cost ranges are rearranged into disjoint cells and, where
    the rearranged group exceeds ``max_aggregate_buckets`` cells, merged
    onto an equal-width grid.  All groups are processed by one batched
    kernel pass (:func:`repro.histograms.kernels.grouped_rearrange_coarsen`)
    rather than a per-group Python loop.  If the state is still too large
    afterwards, the lowest-probability cells are pruned (and the remainder
    renormalised); the probability share pruned is returned with the state.
    """
    if not np.any(state.prob > 0.0):
        raise EstimationError("joint propagation lost all probability mass")
    if not state.sep_ids:
        # One group only: rearrange/coarsen directly, skipping the grouped
        # kernel's windowing machinery (and, matching it, leave states
        # already within the cap untouched).
        if state.n_cells <= max_aggregate_buckets:
            new_state = state
        else:
            highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
            cells = kernels.rearrange(state.agg_low, highs, state.prob, normalize=False)
            lows, highs, probs = kernels.truncate_to_max_buckets(*cells, max_aggregate_buckets)
            new_state = replace(
                state, agg_low=lows, agg_high=highs, prob=probs,
                group=np.zeros(probs.shape[0], dtype=np.int64),
            )
        return _bound_and_normalise(new_state, max_state_cells)

    # Renumber the separator groups still present densely, keeping their
    # (lexicographic bucket-index) order, as the grouped kernel expects.
    present = np.bincount(state.group, minlength=state.group_low.shape[0]) > 0
    labels = (np.cumsum(present) - 1)[state.group]

    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    out_lows, out_highs, out_probs, out_groups = kernels.grouped_rearrange_coarsen(
        state.agg_low, highs, state.prob, labels, max_aggregate_buckets
    )
    new_state = _State(
        out_lows, out_highs, out_probs, out_groups,
        state.group_low[present], state.group_high[present], state.sep_ids,
    )
    return _bound_and_normalise(new_state, max_state_cells)


def _bound_and_normalise(state: _State, max_state_cells: int) -> tuple[_State, float]:
    """Prune the lowest-probability cells past the cap and renormalise.

    Returns the state and the probability share pruned.
    """
    dropped = 0.0
    if state.n_cells > max_state_cells:
        order = np.argsort(state.prob)[::-1]
        dropped = float(state.prob[order[max_state_cells:]].sum() / state.prob.sum())
        order = order[:max_state_cells]
        state = replace(
            state,
            agg_low=state.agg_low[order],
            agg_high=state.agg_high[order],
            prob=state.prob[order],
            group=state.group[order],
        )
    total = state.prob.sum()
    if total <= 0.0:
        raise EstimationError("joint propagation lost all probability mass")
    return replace(state, prob=state.prob / total), dropped
