"""Seeded inputs for every workload, generated before any clock starts.

The data set is the repository's "default" bench preset: an 8x8
``grid_network`` (220 m blocks, an arterial every 3 blocks), 1000
simulated trajectories on 10 popular routes (simulator seed 7), and
``EstimatorParameters(beta=20)`` with ``max_cardinality=5``.  Keeping the
data set fixed keeps the numbers comparable with the committed results in
``benchmarks/results/``.  The ``--seed`` argument draws everything a
workload sends: the query keys, the popularity order, the arrival times,
the route pairs, the GPS stream and the probe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import (
    EstimatorParameters,
    HybridGraphBuilder,
    Path,
    SimulationParameters,
    TrafficSimulator,
    Trajectory,
    grid_network,
    interval_of,
)

PRESET = dict(
    grid=8,
    block_length_m=220.0,
    arterial_every=3,
    n_trajectories=1000,
    popular_routes=10,
    simulator_seed=7,
    beta=20,
    max_cardinality=5,
)


@dataclass
class Dataset:
    network: object
    simulator: object
    trajectories: list
    parameters: object

    def builder(self) -> HybridGraphBuilder:
        """A fresh builder (a refresh must use a fresh one to match a cold build)."""
        return HybridGraphBuilder(
            self.network, self.parameters, max_cardinality=PRESET["max_cardinality"]
        )

    @property
    def alpha_minutes(self) -> int:
        return self.parameters.alpha_minutes


def dataset() -> Dataset:
    network = grid_network(
        PRESET["grid"],
        PRESET["grid"],
        block_length_m=PRESET["block_length_m"],
        arterial_every=PRESET["arterial_every"],
        name="bench-city",
    )
    simulator = TrafficSimulator(
        network,
        SimulationParameters(
            n_trajectories=PRESET["n_trajectories"],
            popular_route_count=PRESET["popular_routes"],
            seed=PRESET["simulator_seed"],
        ),
    )
    return Dataset(
        network=network,
        simulator=simulator,
        trajectories=simulator.generate(),
        parameters=EstimatorParameters(beta=PRESET["beta"]),
    )


@dataclass(frozen=True)
class Key:
    """One estimate query: a sub-path of a trajectory at its own departure time."""

    edge_ids: tuple
    departure_s: float

    @property
    def path(self) -> Path:
        return Path(self.edge_ids)


def sub_path_key(trajectory, start: int, length: int) -> Key:
    return Key(
        tuple(trajectory.edge_ids[start : start + length]),
        float(trajectory.traversals[start].entry_time_s),
    )


def key_population(trajectories, min_length: int, max_length: int, alpha_minutes: int) -> dict:
    """Every distinct sub-path key of ``min_length..max_length`` edges -> (key, support).

    A key departs when its first traversal entered the sub-path; its
    support is the number of traversals of the path departing in the same
    alpha-interval (the observations its variables are instantiated from).
    """
    population = {}
    for trajectory in trajectories:
        for length in range(min_length, min(max_length, len(trajectory)) + 1):
            for start in range(len(trajectory) - length + 1):
                key = sub_path_key(trajectory, start, length)
                identity = (key.edge_ids, interval_of(key.departure_s, alpha_minutes).index)
                if identity in population:
                    first, support = population[identity]
                    population[identity] = (first, support + 1)
                else:
                    population[identity] = (key, 1)
    return population


def stratified_keys(
    trajectories,
    rng: np.random.Generator,
    lengths: list[int],
    alpha_minutes: int,
    bins: int = 4,
) -> list[Key]:
    """Distinct keys with the given lengths, stratified by support within each length.

    Estimation cost grows with path length and with the support behind
    the path (well-travelled paths have high-rank variables and large
    joints).  The j-th key of a length comes from support bin ``j % bins``
    of that length's keys, so every run sees the same cost mix.
    """
    population = key_population(trajectories, min(lengths), max(lengths), alpha_minutes)
    strata = {}
    for length in set(lengths):
        entries = [entry for identity, entry in population.items() if len(identity[0]) == length]
        order = rng.permutation(len(entries))
        ranked = sorted(order, key=lambda i: entries[i][1])  # by support, ties at random
        strata[length] = [
            [entries[i][0] for i in chunk] for chunk in np.array_split(np.asarray(ranked), bins)
        ]
    taken = {length: 0 for length in strata}
    keys = []
    for length in lengths:
        bin_keys = strata[length][taken[length] % bins]
        if not bin_keys:
            raise RuntimeError(f"ran out of distinct keys of length {length}")
        keys.append(bin_keys.pop(int(rng.integers(len(bin_keys)))))
        taken[length] += 1
    return keys


def weighted_schedule(weights: dict, count: int) -> list:
    """``count`` items interleaved so every prefix follows ``weights`` closely.

    Smooth weighted round robin: each step adds every item's weight to its
    credit and emits the item with the most credit, which then pays the
    total weight.
    """
    total = sum(weights.values())
    credit = {item: 0.0 for item in weights}
    schedule = []
    for _ in range(count):
        for item, weight in weights.items():
            credit[item] += weight
        chosen = max(credit, key=lambda item: (credit[item], -item))
        credit[chosen] -= total
        schedule.append(chosen)
    return schedule


def sampled_keys(
    trajectories,
    rng: np.random.Generator,
    min_length: int,
    max_length: int,
    count: int,
    alpha_minutes: int,
) -> list[Key]:
    """``count`` keys drawn without replacement from :func:`key_population`."""
    keys = [key for key, _support in key_population(
        trajectories, min_length, max_length, alpha_minutes
    ).values()]
    if len(keys) < count:
        raise RuntimeError(f"only {len(keys)} distinct keys, {count} wanted")
    return [keys[int(index)] for index in rng.choice(len(keys), size=count, replace=False)]


def cyclic_lengths(low: int, high: int, count: int) -> list[int]:
    """``low..high`` repeated in order: every prefix holds a near-exact length mix."""
    span = high - low + 1
    return [low + index % span for index in range(count)]


def zipf_ranks(rng: np.random.Generator, n_items: int, exponent: float, count: int) -> np.ndarray:
    """``count`` draws of ranks ``0..n_items-1`` with P(rank r) proportional to (r+1)^-exponent."""
    weights = 1.0 / np.arange(1, n_items + 1) ** exponent
    return rng.choice(n_items, size=count, p=weights / weights.sum())


def renumbered(gps: Trajectory, trajectory_id: int) -> Trajectory:
    """The same GPS records under a new trajectory id."""
    return Trajectory(trajectory_id, gps.records)


def quantiles(values, points=(0, 25, 50, 75, 100)) -> dict:
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return {}
    return {f"p{p}": float(np.percentile(array, p)) for p in points}
