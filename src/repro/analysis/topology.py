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

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..clustering.base import ClusterState, Role
from ..routing.inter_cluster import backbone_mask
from ..spatial import adjacency_to_edges

__all__ = [
    "gateway_nodes",
    "backbone_nodes",
    "backbone_graph",
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


def backbone_graph(state: ClusterState, adjacency: np.ndarray) -> nx.Graph:
    """The subgraph induced by the backbone nodes."""
    adjacency = np.asarray(adjacency, dtype=bool)
    nodes = backbone_nodes(state, adjacency)
    graph = nx.Graph()
    graph.add_nodes_from(int(n) for n in nodes)
    node_set = set(int(n) for n in nodes)
    for u in node_set:
        for v in np.flatnonzero(adjacency[u]):
            v = int(v)
            if v in node_set and u < v:
                graph.add_edge(u, v)
    return graph


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
    adjacency = np.asarray(adjacency, dtype=bool)
    full = nx.from_numpy_array(adjacency)
    node_set = set(int(n) for n in backbone_nodes(state, adjacency))
    rng = np.random.default_rng(rng)
    n = state.n_nodes
    connected = reachable = 0
    for _ in range(samples):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v or not nx.has_path(full, u, v):
            continue
        connected += 1
        allowed = node_set | {u, v}
        sub = full.subgraph(allowed)
        if nx.has_path(sub, u, v):
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
    adjacency = np.asarray(adjacency, dtype=bool)
    graph = nx.from_numpy_array(adjacency)
    diameters = []
    for head in state.heads():
        nodes = [int(x) for x in state.cluster_nodes(int(head))]
        sub = graph.subgraph(nodes)
        if len(nodes) == 1:
            diameters.append(0.0)
        elif nx.is_connected(sub):
            diameters.append(float(nx.diameter(sub)))
        else:
            diameters.append(float("inf"))
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
