"""Kernel micro-benchmarks: simulator step cost and formation cost.

Not a paper artifact — these track the substrate's own performance so
regressions in the hot paths (the simulation step, one-shot edge-set
recomputation, event diffing, LID formation) are visible.
"""

from __future__ import annotations

import numpy as np

from repro.clustering import LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation
from repro.spatial import (
    Boundary,
    SquareRegion,
    UniformGridIndex,
    compute_edges,
    diff_edge_sets,
)


def test_simulation_step_cost(benchmark):
    params = NetworkParameters.from_fractions(
        n_nodes=400, range_fraction=0.1, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
    )
    benchmark(sim.step)


def test_simulation_step_cost_n2000(benchmark):
    """Simulation step at N=2000, a large sparse network."""
    params = NetworkParameters.from_fractions(
        n_nodes=2000, range_fraction=0.05, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
    )
    benchmark(sim.step)


def test_compute_edges_grid_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    positions = region.uniform_positions(2000, 0)
    edges = benchmark(compute_edges, region, positions, 0.05, method="grid")
    assert len(edges) > 0


def test_diff_edge_sets_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    edges_a = compute_edges(
        region, region.uniform_positions(2000, 0), 0.05, method="grid"
    )
    edges_b = compute_edges(
        region, region.uniform_positions(2000, 1), 0.05, method="grid"
    )
    events = benchmark(diff_edge_sets, edges_a, edges_b)
    assert events.change_count > 0


def test_lid_formation_cost(benchmark):
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(400, 0)
    adjacency = region.adjacency(positions, 0.1)
    algorithm = LowestIdClustering()
    state = benchmark(algorithm.form, adjacency)
    assert state.cluster_count() > 0


def test_grid_index_rebuild_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    positions = region.uniform_positions(2000, 0)
    index = UniformGridIndex(region, 0.05)

    def rebuild_and_pair():
        index.rebuild(positions)
        return index.neighbor_pairs()

    pairs = benchmark(rebuild_and_pair)
    assert len(pairs) > 0


def test_dense_adjacency_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    positions = region.uniform_positions(400, 0)
    result = benchmark(region.adjacency, positions, 0.1)
    assert result.shape == (400, 400)
