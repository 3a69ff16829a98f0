"""Tests for the uniform grid index (repro.spatial.grid_index)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import (
    Boundary,
    SquareRegion,
    UniformGridIndex,
    edges_to_adjacency,
)


def _adjacency(index, radius=None):
    """Dense view of the index's edge set, for comparison with the metric."""
    return edges_to_adjacency(
        index.neighbor_pairs(radius), len(index._positions)
    )


def _build(region, n, radius, seed):
    positions = region.uniform_positions(n, seed)
    index = UniformGridIndex(region, radius)
    index.rebuild(positions)
    return positions, index


class TestConstruction:
    def test_rejects_nonpositive_radius(self, unit_torus):
        with pytest.raises(ValueError):
            UniformGridIndex(unit_torus, 0.0)

    def test_cell_geometry(self, unit_torus):
        index = UniformGridIndex(unit_torus, 0.3)
        assert index.cells_per_side == 3
        assert index.cell_size == pytest.approx(1.0 / 3.0)

    def test_radius_larger_than_side(self, unit_torus):
        index = UniformGridIndex(unit_torus, 2.0)
        assert index.cells_per_side == 1

    def test_query_before_rebuild_raises(self, unit_torus):
        index = UniformGridIndex(unit_torus, 0.2)
        with pytest.raises(RuntimeError):
            index.candidate_pairs_raw()
        with pytest.raises(RuntimeError):
            index.neighbor_pairs()

    def test_bad_positions_shape(self, unit_torus):
        index = UniformGridIndex(unit_torus, 0.2)
        with pytest.raises(ValueError):
            index.rebuild(np.zeros((5, 3)))


class TestEquivalenceWithDense:
    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    @pytest.mark.parametrize("radius", [0.05, 0.13, 0.31])
    def test_adjacency_identical(self, boundary, radius):
        region = SquareRegion(1.0, boundary)
        positions, index = _build(region, 250, radius, seed=1)
        np.testing.assert_array_equal(
            _adjacency(index), region.adjacency(positions, radius)
        )

    def test_tiny_torus_few_cells(self):
        # cells_per_side <= 3 exercises the wrapped-stencil dedup path.
        region = SquareRegion(1.0, Boundary.TORUS)
        positions, index = _build(region, 80, 0.4, seed=3)
        assert index.cells_per_side <= 3
        np.testing.assert_array_equal(
            _adjacency(index), region.adjacency(positions, 0.4)
        )

    def test_smaller_query_radius(self, unit_torus):
        positions, index = _build(unit_torus, 120, 0.2, seed=4)
        np.testing.assert_array_equal(
            _adjacency(index, 0.1), unit_torus.adjacency(positions, 0.1)
        )

    def test_larger_query_radius_rejected(self, unit_torus):
        _, index = _build(unit_torus, 20, 0.1, seed=5)
        with pytest.raises(ValueError):
            index.neighbor_pairs(0.2)


class TestPairs:
    def test_pairs_sorted_and_unique(self, unit_torus):
        _, index = _build(unit_torus, 100, 0.15, seed=6)
        pairs = index.neighbor_pairs()
        assert np.all(pairs[:, 0] < pairs[:, 1])
        as_tuples = [tuple(p) for p in pairs]
        assert len(as_tuples) == len(set(as_tuples))

    def test_pair_count_matches_edges(self, unit_torus):
        positions, index = _build(unit_torus, 100, 0.15, seed=7)
        dense = unit_torus.adjacency(positions, 0.15)
        assert len(index.neighbor_pairs()) == dense.sum() // 2

    def test_empty_graph(self, unit_torus):
        positions = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        index = UniformGridIndex(unit_torus, 0.05)
        index.rebuild(positions)
        assert index.neighbor_pairs().shape == (0, 2)
        assert not _adjacency(index).any()


class TestEveryCellCount:
    """Exact dense equivalence at every coarse grid resolution.

    ``radius = side / (m + 0.5)`` forces ``cells_per_side == m``, so
    this sweeps the wrapped-stencil aliasing regimes one by one: m <= 2
    (offsets alias under wrap, dedup required), m = 3 (distinct mod 3),
    and the plain sparse regimes above.
    """

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_adjacency_matches_dense(self, m, boundary):
        region = SquareRegion(1.0, boundary)
        radius = 1.0 / (m + 0.5)
        positions = region.uniform_positions(90, m * 10 + 1)
        index = UniformGridIndex(region, radius)
        assert index.cells_per_side == m
        index.rebuild(positions)
        np.testing.assert_array_equal(
            _adjacency(index), region.adjacency(positions, radius)
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_pairs_unique_and_sorted_on_torus(self, m):
        region = SquareRegion(1.0, Boundary.TORUS)
        radius = 1.0 / (m + 0.5)
        positions = region.uniform_positions(70, m)
        index = UniformGridIndex(region, radius)
        index.rebuild(positions)
        pairs = index.neighbor_pairs()
        assert np.all(pairs[:, 0] < pairs[:, 1])
        keys = pairs[:, 0] * 70 + pairs[:, 1]
        assert len(np.unique(keys)) == len(keys)
        assert np.all(np.diff(keys) > 0)  # canonically sorted

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_candidates_unique_per_node(self, m):
        # From 3 cells per side on, every wrapped stencil cell is
        # distinct, so the raw sweep pairs each node with each candidate
        # once; below that, the aliased offsets repeat pairs (and emit
        # self pairs) that consumers drop.  Either way no edge is missed.
        region = SquareRegion(1.0, Boundary.TORUS)
        radius = 1.0 / (m + 0.5)
        positions = region.uniform_positions(50, m + 100)
        index = UniformGridIndex(region, radius)
        index.rebuild(positions)
        i, j = index.candidate_pairs_raw()
        keys = np.minimum(i, j) * 50 + np.maximum(i, j)
        if m >= 3:
            assert np.all(i != j)
            assert len(np.unique(keys)) == len(keys)
        edges = index.neighbor_pairs()
        assert np.isin(edges[:, 0] * 50 + edges[:, 1], keys).all()


class TestIncrementalUpdate:
    """``update`` must be indistinguishable from a fresh ``rebuild``."""

    def _assert_matches_fresh(self, index, region, positions, radius):
        fresh = UniformGridIndex(region, radius)
        fresh.rebuild(positions)
        np.testing.assert_array_equal(
            index.neighbor_pairs(), fresh.neighbor_pairs()
        )

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]
    )
    def test_small_motion_stream(self, boundary):
        region = SquareRegion(1.0, boundary)
        rng = np.random.default_rng(11)
        positions = region.uniform_positions(150, 11)
        index = UniformGridIndex(region, 0.12)
        for _ in range(12):
            positions = positions + rng.normal(0.0, 0.01, positions.shape)
            if boundary is Boundary.TORUS:
                positions %= region.side
            else:
                positions = np.clip(positions, 0.0, region.side)
            changed = index.update(positions)
            assert changed >= 0
            self._assert_matches_fresh(index, region, positions, 0.12)

    def test_teleports_handled(self, unit_torus):
        rng = np.random.default_rng(12)
        positions = unit_torus.uniform_positions(120, 12)
        index = UniformGridIndex(unit_torus, 0.15)
        index.update(positions)
        for _ in range(5):
            positions = positions.copy()
            jump = rng.choice(120, size=7, replace=False)
            positions[jump] = rng.random((7, 2))
            index.update(positions)
            self._assert_matches_fresh(index, unit_torus, positions, 0.15)

    def test_first_update_acts_as_rebuild(self, unit_torus):
        positions = unit_torus.uniform_positions(60, 13)
        index = UniformGridIndex(unit_torus, 0.2)
        index.update(positions)
        self._assert_matches_fresh(index, unit_torus, positions, 0.2)

    def test_length_change_triggers_rebuild(self, unit_torus):
        index = UniformGridIndex(unit_torus, 0.2)
        index.update(unit_torus.uniform_positions(50, 14))
        grown = unit_torus.uniform_positions(80, 15)
        index.update(grown)
        self._assert_matches_fresh(index, unit_torus, grown, 0.2)

    def test_no_motion_is_noop(self, unit_torus):
        positions = unit_torus.uniform_positions(90, 16)
        index = UniformGridIndex(unit_torus, 0.1)
        index.update(positions)
        assert index.update(positions) == 0
        self._assert_matches_fresh(index, unit_torus, positions, 0.1)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=120),
    st.floats(min_value=0.03, max_value=0.6),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]),
)
def test_grid_equals_dense_property(n, radius, seed, boundary):
    """The index is exactly equivalent to the dense metric, always."""
    region = SquareRegion(1.0, boundary)
    positions = region.uniform_positions(n, seed)
    index = UniformGridIndex(region, radius)
    index.rebuild(positions)
    np.testing.assert_array_equal(
        _adjacency(index), region.adjacency(positions, radius)
    )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=100),
    st.floats(min_value=0.05, max_value=0.5),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]),
)
def test_update_equals_rebuild_property(n, radius, seed, boundary):
    """A stream of updates (with teleports) never diverges from rebuild."""
    region = SquareRegion(1.0, boundary)
    rng = np.random.default_rng(seed)
    positions = region.uniform_positions(n, seed)
    index = UniformGridIndex(region, radius)
    for round_index in range(4):
        positions = positions + rng.normal(0.0, 0.02, positions.shape)
        if round_index == 2:
            # Teleport a node to stress the re-binning path.
            positions = positions.copy()
            positions[rng.integers(n)] = rng.random(2)
        if boundary is Boundary.TORUS:
            positions = positions % region.side
        else:
            positions = np.clip(positions, 0.0, region.side)
        index.update(positions)
        fresh = UniformGridIndex(region, radius)
        fresh.rebuild(positions)
        np.testing.assert_array_equal(
            index.neighbor_pairs(), fresh.neighbor_pairs()
        )
