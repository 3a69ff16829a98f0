"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import MessageSizes, NetworkParameters
from repro.spatial import Boundary, SquareRegion


def _remove_links(sim, links) -> None:
    """Delete ``links`` (pairs in either orientation) from ``sim.edges``.

    The edge set is the simulation's source of truth; assigning the
    filtered set drops the cached dense and neighbor-list views, so
    every consumer sees the cut from its next access on.
    """
    cut = {(min(u, v), max(u, v)) for u, v in links}
    keep = [(int(u), int(v)) not in cut for u, v in sim.edges]
    sim.edges = sim.edges[np.asarray(keep, dtype=bool)]


def _add_links(sim, links) -> None:
    """Insert ``links`` (pairs in either orientation) into ``sim.edges``.

    The counterpart of :func:`_remove_links`: the result stays a sorted,
    duplicate-free ``(E, 2)`` array with ``i < j``, and assigning it
    drops the cached views.
    """
    added = np.array(
        [(min(u, v), max(u, v)) for u, v in links], dtype=sim.edges.dtype
    ).reshape(-1, 2)
    sim.edges = np.unique(np.concatenate((sim.edges, added)), axis=0)


@pytest.fixture
def params() -> NetworkParameters:
    """A mid-sized parameter point used across unit tests."""
    return NetworkParameters.from_fractions(
        n_nodes=100, range_fraction=0.15, velocity_fraction=0.05
    )


@pytest.fixture
def unit_torus() -> SquareRegion:
    """Unit square with wrap-around (the paper's simulation region)."""
    return SquareRegion(1.0, Boundary.TORUS)


@pytest.fixture
def unit_open() -> SquareRegion:
    """Unit square without wrapping (static-placement analyses)."""
    return SquareRegion(1.0, Boundary.OPEN)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_adjacency() -> np.ndarray:
    """A hand-checkable 6-node topology.

    Path 0-1-2 plus a triangle 3-4-5, with a bridge 2-3::

        0 - 1 - 2 - 3 - 4
                     \\ / |
                      5--+
    """
    n = 6
    adj = np.zeros((n, n), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]:
        adj[u, v] = adj[v, u] = True
    return adj


@pytest.fixture
def remove_links():
    """``remove_links(sim, links)``: cut links out of a simulation's edges."""
    return _remove_links


@pytest.fixture
def add_links():
    """``add_links(sim, links)``: insert links into a simulation's edges."""
    return _add_links
