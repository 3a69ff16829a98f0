"""Tests for clustered-topology structural metrics.

The metrics walk graphs by BFS over neighbor lists; networkx, a test
dependency only, is the reference they are pinned to.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.topology import (
    StructureSummary,
    backbone_nodes,
    backbone_reachability,
    cluster_diameters,
    gateway_nodes,
    head_separations,
    summarize_structure,
)
from repro.clustering import (
    ClusterState,
    LowestIdClustering,
    MaxMinDCluster,
    Role,
)
from repro.spatial import Boundary, SquareRegion


@pytest.fixture
def clustered():
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(150, 5)
    adjacency = region.adjacency(positions, 0.15)
    state = LowestIdClustering().form(adjacency)
    return region, positions, adjacency, state


class TestGateways:
    def test_gateways_are_members_with_foreign_neighbors(self, clustered):
        _, _, adjacency, state = clustered
        for node in gateway_nodes(state, adjacency):
            assert state.roles[node] == Role.MEMBER
            neighbors = np.flatnonzero(adjacency[node])
            assert np.any(state.head_of[neighbors] != state.head_of[node])

    def test_backbone_is_heads_union_gateways(self, clustered):
        _, _, adjacency, state = clustered
        backbone = set(backbone_nodes(state, adjacency).tolist())
        heads = set(state.heads().tolist())
        gateways = set(gateway_nodes(state, adjacency).tolist())
        assert backbone == heads | gateways


class TestBackboneGraph:
    def test_reachability_near_one_for_dense_lid(self, clustered):
        _, _, adjacency, state = clustered
        value = backbone_reachability(state, adjacency, samples=150, rng=0)
        assert value > 0.95

    def test_reachability_nan_for_isolated(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        state = LowestIdClustering().form(adjacency)
        import math

        assert math.isnan(
            backbone_reachability(state, adjacency, samples=20, rng=0)
        )


class TestDiametersAndSeparation:
    def test_one_hop_diameters_at_most_two(self, clustered):
        _, _, adjacency, state = clustered
        diameters = cluster_diameters(state, adjacency)
        assert np.all(diameters <= 2.0)

    def test_dhop_diameters_can_exceed_two(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        positions = region.uniform_positions(200, 1)
        adjacency = region.adjacency(positions, 0.1)
        state = MaxMinDCluster(2).form(adjacency)
        diameters = cluster_diameters(state, adjacency)
        finite = diameters[np.isfinite(diameters)]
        assert np.max(finite) > 2.0

    def test_p1_implies_head_separation_beyond_range(self, clustered):
        region, positions, _, state = clustered
        separations = head_separations(state, positions, region)
        assert np.min(separations) > 0.15  # the transmission range

    def test_single_head_no_separations(self):
        adjacency = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(adjacency, False)
        state = LowestIdClustering().form(adjacency)
        region = SquareRegion(1.0, Boundary.OPEN)
        positions = region.uniform_positions(3, 0)
        assert len(head_separations(state, positions, region)) == 0


def _nx_backbone_reachability(state, adjacency, samples, rng):
    full = nx.from_numpy_array(adjacency)
    node_set = set(int(n) for n in backbone_nodes(state, adjacency))
    rng = np.random.default_rng(rng)
    connected = reachable = 0
    for _ in range(samples):
        u, v = (int(x) for x in rng.integers(0, state.n_nodes, 2))
        if u == v or not nx.has_path(full, u, v):
            continue
        connected += 1
        if nx.has_path(full.subgraph(node_set | {u, v}), u, v):
            reachable += 1
    return reachable / connected if connected else float("nan")


def _nx_cluster_diameters(state, adjacency):
    graph = nx.from_numpy_array(adjacency)
    diameters = []
    for head in state.heads():
        sub = graph.subgraph(int(x) for x in state.cluster_nodes(int(head)))
        if nx.is_connected(sub):
            diameters.append(float(nx.diameter(sub)))
        else:
            diameters.append(float("inf"))
    return np.array(diameters)


def _random_state(n, n_heads, seed):
    """Heads drawn at random, every other node affiliated at random:
    clusters with no geometric meaning, so often disconnected."""
    rng = np.random.default_rng(seed)
    heads = rng.choice(n, size=n_heads, replace=False)
    head_of = heads[rng.integers(0, n_heads, n)]
    head_of[heads] = heads
    roles = np.full(n, Role.MEMBER, dtype=np.int8)
    roles[heads] = Role.HEAD
    return ClusterState(roles, head_of)


def _states(seed):
    """One-hop, 2-hop and random states on one random unit-disk graph."""
    region = SquareRegion(1.0, Boundary.OPEN)
    n = 40 + 20 * (seed % 4)
    adjacency = region.adjacency(
        region.uniform_positions(n, seed), 0.12 + 0.02 * (seed % 5)
    )
    return adjacency, [
        LowestIdClustering().form(adjacency),
        MaxMinDCluster(2).form(adjacency),
        _random_state(n, 3 + seed % 7, seed),
    ]


class TestNetworkxReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_reachability_matches_networkx(self, seed):
        adjacency, states = _states(seed)
        for state in states:
            assert backbone_reachability(
                state, adjacency, samples=120, rng=seed
            ) == pytest.approx(
                _nx_backbone_reachability(state, adjacency, 120, seed),
                nan_ok=True,
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_diameters_match_networkx(self, seed):
        adjacency, states = _states(seed)
        for state in states:
            np.testing.assert_array_equal(
                cluster_diameters(state, adjacency),
                _nx_cluster_diameters(state, adjacency),
            )
        # The random state has disconnected clusters, which report inf.
        assert np.isinf(cluster_diameters(states[2], adjacency)).any()


class TestSummary:
    def test_summary_fields_consistent(self, clustered):
        region, positions, adjacency, state = clustered
        summary = summarize_structure(
            state, adjacency, positions, region, samples=100, rng=1
        )
        assert isinstance(summary, StructureSummary)
        assert summary.n_nodes == 150
        assert summary.cluster_count == state.cluster_count()
        assert summary.head_ratio == pytest.approx(state.head_ratio())
        assert summary.backbone_ratio >= summary.gateway_ratio
        assert summary.backbone_ratio >= summary.head_ratio
        assert summary.backbone_ratio <= summary.gateway_ratio + summary.head_ratio + 1e-12
        assert summary.max_cluster_diameter <= 2.0
        assert summary.min_head_separation > 0.15
