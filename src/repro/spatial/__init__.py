"""Spatial substrate: square regions, metrics and neighbor indexing."""

from .region import Boundary, SquareRegion
from .grid_index import UniformGridIndex
from .incremental import (
    INCREMENTAL_MARGIN_FRACTION,
    IncrementalConnectivityEngine,
    IncrementalStepResult,
)
from .neighbors import (
    GRID_CROSSOVER_NODES,
    LinkEvents,
    adjacency_to_edges,
    compute_adjacency,
    compute_edges,
    degree_counts,
    degree_counts_from_edges,
    diff_adjacency,
    diff_edge_sets,
    edges_to_adjacency,
    edges_to_neighbor_lists,
    select_connectivity_method,
)

__all__ = [
    "Boundary",
    "SquareRegion",
    "UniformGridIndex",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
    "GRID_CROSSOVER_NODES",
    "INCREMENTAL_MARGIN_FRACTION",
    "LinkEvents",
    "adjacency_to_edges",
    "compute_adjacency",
    "compute_edges",
    "degree_counts",
    "degree_counts_from_edges",
    "diff_adjacency",
    "diff_edge_sets",
    "edges_to_adjacency",
    "edges_to_neighbor_lists",
    "select_connectivity_method",
]
