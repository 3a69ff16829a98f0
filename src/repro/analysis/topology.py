"""Structural metrics of a clustered topology.

The paper motivates clustering by the logical hierarchy it creates:
cluster-heads plus gateways form a *backbone* that carries inter-cluster
control traffic, and the flooding reduction equals the fraction of
nodes on that backbone.  This module quantifies the structures the
routing layer relies on — gateway population, backbone connectivity,
cluster diameters, head separation — for use in the scalability
experiments and the test suite's structural assertions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..clustering.base import ClusterState, Role
from ..routing.inter_cluster import backbone_mask
from ..spatial import adjacency_to_edges, edges_to_neighbor_lists

__all__ = [
    "gateway_nodes",
    "backbone_nodes",
    "backbone_reachability",
    "cluster_diameters",
    "head_separations",
    "StructureSummary",
    "summarize_structure",
]


def gateway_nodes(state: ClusterState, adjacency: np.ndarray) -> np.ndarray:
    """Indices of all gateways (members with out-of-cluster neighbors)."""
    mask = backbone_mask(state, adjacency_to_edges(adjacency))
    return np.flatnonzero(mask & (state.roles == Role.MEMBER))


def backbone_nodes(state: ClusterState, adjacency: np.ndarray) -> np.ndarray:
    """Heads plus gateways — the nodes that forward inter-cluster floods."""
    return np.flatnonzero(backbone_mask(state, adjacency_to_edges(adjacency)))


def _neighbor_lists(adjacency: np.ndarray) -> list[list[int]]:
    adjacency = np.asarray(adjacency, dtype=bool)
    edges = adjacency_to_edges(adjacency)
    return edges_to_neighbor_lists(edges, len(adjacency))


def _bfs_hops(
    neighbors: list[list[int]], source: int, allowed: set[int] | None = None
) -> dict[int, int]:
    """Hop count from ``source`` to every node it reaches.

    With ``allowed`` the walk stays inside that node set (which must
    hold ``source``): the BFS of the induced subgraph.
    """
    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in neighbors[node]:
            if neighbor in hops or (
                allowed is not None and neighbor not in allowed
            ):
                continue
            hops[neighbor] = hops[node] + 1
            queue.append(neighbor)
    return hops


def _component_labels(
    neighbors: list[list[int]], members: np.ndarray
) -> np.ndarray:
    """Connected-component label of each node of the subgraph induced by
    the boolean mask ``members``; ``-1`` for nodes outside it."""
    labels = np.full(len(neighbors), -1, dtype=np.int64)
    allowed = set(np.flatnonzero(members).tolist())
    for label, node in enumerate(sorted(allowed)):
        if labels[node] < 0:
            labels[list(_bfs_hops(neighbors, node, allowed))] = label
    return labels


def backbone_reachability(
    state: ClusterState, adjacency: np.ndarray, samples: int = 200, rng=None
) -> float:
    """Fraction of connected node pairs also connected via the backbone.

    A pair counts as backbone-connected when a path exists whose
    interior nodes are all heads or gateways (the pair's endpoints may
    be interior members).  This is exactly the reachability of the
    cluster-based flood, so values near 1 certify that restricting
    forwarding to the backbone loses (almost) nothing.
    """
    neighbors = _neighbor_lists(adjacency)
    n = state.n_nodes
    component = _component_labels(neighbors, np.ones(n, dtype=bool))
    on_backbone = np.zeros(n, dtype=bool)
    on_backbone[backbone_nodes(state, adjacency)] = True
    backbone_component = _component_labels(neighbors, on_backbone)

    def touched(node: int) -> set[int]:
        # Backbone components a path may enter from ``node``: its own,
        # or, for an off-backbone endpoint, its backbone neighbors'.
        if on_backbone[node]:
            return {int(backbone_component[node])}
        return {
            int(backbone_component[v])
            for v in neighbors[node]
            if on_backbone[v]
        }

    rng = np.random.default_rng(rng)
    connected = reachable = 0
    for _ in range(samples):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v or component[u] != component[v]:
            continue
        connected += 1
        # A direct link has no interior; otherwise the interior is one
        # backbone component both endpoints touch.
        if v in neighbors[u] or touched(u) & touched(v):
            reachable += 1
    if connected == 0:
        return float("nan")
    return reachable / connected


def cluster_diameters(state: ClusterState, adjacency: np.ndarray) -> np.ndarray:
    """Hop diameter of each cluster's induced subgraph (head order).

    For a valid one-hop structure every member is adjacent to the head,
    so diameters are at most 2; d-hop schemes produce larger values.
    Disconnected cluster subgraphs (possible for d-hop schemes whose
    members route through other clusters) report ``inf``.
    """
    neighbors = _neighbor_lists(adjacency)
    diameters = []
    for head in state.heads():
        nodes = set(state.cluster_nodes(int(head)).tolist())
        diameter = 0.0
        for node in nodes:
            hops = _bfs_hops(neighbors, node, nodes)
            if len(hops) < len(nodes):
                diameter = float("inf")
                break
            diameter = max(diameter, float(max(hops.values())))
        diameters.append(diameter)
    return np.array(diameters)


def head_separations(
    state: ClusterState, positions: np.ndarray, region
) -> np.ndarray:
    """Pairwise distances between cluster-heads under the region metric.

    Property P1 (no two heads adjacent) implies every separation
    exceeds the transmission range in a valid one-hop structure.
    """
    heads = state.heads()
    if len(heads) < 2:
        return np.empty(0)
    head_positions = np.asarray(positions)[heads]
    matrix = region.distance_matrix(head_positions)
    upper = matrix[np.triu_indices(len(heads), k=1)]
    return upper


@dataclass(frozen=True)
class StructureSummary:
    """Aggregate structural metrics of one clustered topology."""

    n_nodes: int
    cluster_count: int
    head_ratio: float
    gateway_ratio: float
    backbone_ratio: float
    backbone_reachability: float
    max_cluster_diameter: float
    min_head_separation: float


def summarize_structure(
    state: ClusterState,
    adjacency: np.ndarray,
    positions: np.ndarray,
    region,
    samples: int = 200,
    rng=None,
) -> StructureSummary:
    """Compute the full structural summary for one snapshot."""
    n = state.n_nodes
    gateways = gateway_nodes(state, adjacency)
    backbone = backbone_nodes(state, adjacency)
    diameters = cluster_diameters(state, adjacency)
    separations = head_separations(state, positions, region)
    return StructureSummary(
        n_nodes=n,
        cluster_count=state.cluster_count(),
        head_ratio=state.head_ratio(),
        gateway_ratio=len(gateways) / n,
        backbone_ratio=len(backbone) / n,
        backbone_reachability=backbone_reachability(
            state, adjacency, samples=samples, rng=rng
        ),
        max_cluster_diameter=float(np.max(diameters)) if len(diameters) else 0.0,
        min_head_separation=(
            float(np.min(separations)) if len(separations) else float("inf")
        ),
    )
