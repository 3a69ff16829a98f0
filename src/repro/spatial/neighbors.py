"""Neighbor-set computation and link-event extraction.

The simulator's core loop needs two operations: compute the unit-disk
connectivity of the current node positions, and diff two consecutive
snapshots into link *generation* and *break* events (the event stream
that drives HELLO, CLUSTER and ROUTE accounting).

The canonical connectivity representation is the sorted **edge set** —
an ``(E, 2)`` integer array of pairs with ``i < j`` in lexicographic
order, as produced by :func:`compute_edges` /
:meth:`~repro.spatial.grid_index.UniformGridIndex.neighbor_pairs`.
Edge sets cost ``O(E)`` memory instead of ``O(N^2)`` and diff in
``O(E log E)`` (:func:`diff_edge_sets`).  Dense boolean adjacency
matrices remain available as a derived view (:func:`edges_to_adjacency`,
:func:`compute_adjacency`) for clustering/routing consumers that index
into a matrix.

:func:`compute_edges` is the *one-shot* path: it computes an edge set
from scratch, through the dense metric or the uniform grid index as a
measured cost model decides (see :data:`GRID_CROSSOVER_NODES`).  The
simulation steps through the incremental engine instead
(:mod:`repro.spatial.incremental`); a ``compute_edges`` rebuild plus
:func:`diff_edge_sets` every step is the batch reference the tests and
``repro-manet bench`` hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_index import UniformGridIndex
from .region import SquareRegion

__all__ = [
    "GRID_CROSSOVER_NODES",
    "MIN_GRID_CELLS_PER_SIDE",
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

#: Node count above which the grid index beats the dense metric for a
#: full edge-set recompute.  Measured with the engine bench harness
#: (``repro-manet bench --crossover``, recorded in ``BENCH_engine.json``;
#: see the README's Performance section): on the reference container
#: (1-core x86-64, NumPy 2.4) the grid's batched cell-pair sweep breaks
#: even with the dense ``O(N^2)`` distance matrix near N=64 at
#: r/a = 0.1, is ~2.5x faster by N=128 and >10x by N=512.  The constant
#: sits at the top of the break-even band so small networks keep the
#: allocation-free dense path.
GRID_CROSSOVER_NODES = 100

#: Below this many grid cells per side the 3x3 stencil spans most of
#: the region, so the grid degenerates into a slower dense scan.
MIN_GRID_CELLS_PER_SIDE = 4

@dataclass(frozen=True)
class LinkEvents:
    """Link changes between two consecutive connectivity snapshots.

    ``generated`` and ``broken`` are ``(E, 2)`` arrays of node index
    pairs with ``i < j``, lexicographically sorted.
    """

    generated: np.ndarray
    broken: np.ndarray

    @property
    def generation_count(self) -> int:
        """Number of links that appeared."""
        return len(self.generated)

    @property
    def break_count(self) -> int:
        """Number of links that disappeared."""
        return len(self.broken)

    @property
    def change_count(self) -> int:
        """Total number of link changes."""
        return self.generation_count + self.break_count


def select_connectivity_method(
    n_nodes: int, tx_range: float, side: float
) -> str:
    """Pick ``"dense"`` or ``"grid"`` for a one-shot edge-set recompute.

    The grid wins over the dense metric once the network is large
    (``n_nodes`` above the measured :data:`GRID_CROSSOVER_NODES`) *and*
    sparse enough that the 3x3 stencil prunes most pairs (at least
    :data:`MIN_GRID_CELLS_PER_SIDE` cells per side, i.e.
    ``tx_range * 4 <= side``).
    """
    sparse_enough = tx_range * MIN_GRID_CELLS_PER_SIDE <= side
    if n_nodes <= GRID_CROSSOVER_NODES or not sparse_enough:
        return "dense"
    return "grid"


def adjacency_to_edges(adjacency: np.ndarray) -> np.ndarray:
    """Sorted ``(E, 2)`` edge array of a symmetric boolean adjacency."""
    upper = np.triu(np.asarray(adjacency, dtype=bool), k=1)
    rows, cols = np.nonzero(upper)
    return np.column_stack((rows, cols)).astype(np.int64, copy=False)


def edges_to_adjacency(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Dense boolean adjacency matrix of an ``(E, 2)`` edge array."""
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    edges = _as_edge_array(edges)
    if len(edges):
        adj[edges[:, 0], edges[:, 1]] = True
        adj[edges[:, 1], edges[:, 0]] = True
    return adj


def edges_to_neighbor_lists(edges: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Ascending per-node neighbor lists of an ``(E, 2)`` edge array."""
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    edges = _as_edge_array(edges)
    sources = np.concatenate((edges[:, 0], edges[:, 1]))
    targets = np.concatenate((edges[:, 1], edges[:, 0]))
    order = np.lexsort((targets, sources))
    flat = targets[order].tolist()
    ends = np.cumsum(np.bincount(sources, minlength=n_nodes)).tolist()
    starts = [0, *ends[:-1]]
    return [flat[start:end] for start, end in zip(starts, ends)]


def compute_edges(
    region: SquareRegion,
    positions: np.ndarray,
    tx_range: float,
    method: str = "auto",
) -> np.ndarray:
    """Sorted unit-disk edge set of ``positions`` under the region metric.

    ``method`` selects the dense metric (``"dense"``), a throwaway grid
    index (``"grid"``), or the measured cost model (``"auto"``, the
    default).  Every path returns the identical edge array.
    """
    pos = np.asarray(positions, dtype=float)
    if method == "auto":
        method = select_connectivity_method(len(pos), tx_range, region.side)
    if method == "grid":
        scratch = UniformGridIndex(region, tx_range)
        scratch.rebuild(pos)
        return scratch.neighbor_pairs(tx_range)
    if method != "dense":
        raise ValueError(
            f"method must be 'auto', 'dense' or 'grid', got {method!r}"
        )
    return adjacency_to_edges(region.adjacency(pos, tx_range))


def compute_adjacency(
    region: SquareRegion, positions: np.ndarray, tx_range: float
) -> np.ndarray:
    """Unit-disk adjacency of ``positions`` under the region metric.

    Compatibility view over :func:`compute_edges`: the same cost model
    picks the dense or grid path, and either path returns the identical
    boolean matrix.
    """
    pos = np.asarray(positions, dtype=float)
    method = select_connectivity_method(len(pos), tx_range, region.side)
    if method == "grid":
        return edges_to_adjacency(
            compute_edges(region, pos, tx_range, method="grid"), len(pos)
        )
    return region.adjacency(pos, tx_range)


def _as_edge_array(edges: np.ndarray) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge sets must be (E, 2) arrays, got {arr.shape}")
    return arr


def _edge_keys(edges: np.ndarray) -> np.ndarray:
    """Unique int64 key per edge, monotone in lexicographic pair order."""
    return (edges[:, 0] << np.int64(32)) | edges[:, 1]


def diff_edge_sets(previous: np.ndarray, current: np.ndarray) -> LinkEvents:
    """Extract link events between two sorted ``(E, 2)`` edge sets.

    Both inputs must be unique pairs with ``i < j`` in lexicographic
    order (the canonical form produced by :func:`compute_edges`).  Runs
    in ``O(E log E)`` and returns events identical to
    :func:`diff_adjacency` on the equivalent dense snapshots.
    """
    prev = _as_edge_array(previous)
    curr = _as_edge_array(current)
    prev_keys = _edge_keys(prev)
    curr_keys = _edge_keys(curr)
    generated = curr[~np.isin(curr_keys, prev_keys, assume_unique=True)]
    broken = prev[~np.isin(prev_keys, curr_keys, assume_unique=True)]
    return LinkEvents(generated=generated, broken=broken)


def _pairs_from_mask(mask: np.ndarray) -> np.ndarray:
    """Upper-triangle True entries of a symmetric mask as sorted pairs."""
    upper = np.triu(mask, k=1)
    rows, cols = np.nonzero(upper)
    return np.column_stack([rows, cols])


def diff_adjacency(previous: np.ndarray, current: np.ndarray) -> LinkEvents:
    """Extract link generation/break events between two adjacencies."""
    prev = np.asarray(previous, dtype=bool)
    curr = np.asarray(current, dtype=bool)
    if prev.shape != curr.shape:
        raise ValueError(
            f"adjacency shapes differ: {prev.shape} vs {curr.shape}"
        )
    generated = _pairs_from_mask(curr & ~prev)
    broken = _pairs_from_mask(prev & ~curr)
    return LinkEvents(generated=generated, broken=broken)


def degree_counts(adjacency: np.ndarray) -> np.ndarray:
    """Per-node degree vector of a boolean adjacency matrix."""
    return np.asarray(adjacency, dtype=bool).sum(axis=1)


def degree_counts_from_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per-node degree vector of an ``(E, 2)`` edge array."""
    edges = _as_edge_array(edges)
    return np.bincount(edges.ravel(), minlength=n_nodes)
