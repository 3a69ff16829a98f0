"""Tests for adjacency computation and link-event diffing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial import (
    Boundary,
    LinkEvents,
    SquareRegion,
    compute_adjacency,
    degree_counts,
    diff_adjacency,
)


class TestComputeAdjacency:
    def test_dense_path(self, unit_torus, rng):
        positions = unit_torus.uniform_positions(100, rng)
        adjacency = compute_adjacency(unit_torus, positions, 0.2)
        np.testing.assert_array_equal(
            adjacency, unit_torus.adjacency(positions, 0.2)
        )

    def test_auto_grid_for_large_sparse(self):
        region = SquareRegion(10.0, Boundary.TORUS)
        positions = region.uniform_positions(900, 0)
        adjacency = compute_adjacency(region, positions, 0.5)
        np.testing.assert_array_equal(
            adjacency, region.adjacency(positions, 0.5)
        )


class TestDiffAdjacency:
    def test_no_change(self, small_adjacency):
        events = diff_adjacency(small_adjacency, small_adjacency)
        assert events.generation_count == 0
        assert events.break_count == 0
        assert events.change_count == 0

    def test_single_generation(self, small_adjacency):
        after = small_adjacency.copy()
        after[0, 5] = after[5, 0] = True
        events = diff_adjacency(small_adjacency, after)
        assert events.generation_count == 1
        assert events.break_count == 0
        np.testing.assert_array_equal(events.generated, [[0, 5]])

    def test_single_break(self, small_adjacency):
        after = small_adjacency.copy()
        after[1, 2] = after[2, 1] = False
        events = diff_adjacency(small_adjacency, after)
        assert events.break_count == 1
        np.testing.assert_array_equal(events.broken, [[1, 2]])

    def test_mixed_events(self, small_adjacency):
        after = small_adjacency.copy()
        after[0, 1] = after[1, 0] = False
        after[0, 4] = after[4, 0] = True
        after[1, 5] = after[5, 1] = True
        events = diff_adjacency(small_adjacency, after)
        assert events.break_count == 1
        assert events.generation_count == 2
        assert events.change_count == 3

    def test_pairs_are_upper_triangle_sorted(self):
        n = 8
        before = np.zeros((n, n), dtype=bool)
        after = np.zeros((n, n), dtype=bool)
        for u, v in [(7, 2), (3, 1), (5, 4)]:
            after[u, v] = after[v, u] = True
        events = diff_adjacency(before, after)
        np.testing.assert_array_equal(events.generated, [[1, 3], [2, 7], [4, 5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff_adjacency(np.zeros((3, 3), bool), np.zeros((4, 4), bool))

    def test_events_immutable_semantics(self, small_adjacency):
        events = diff_adjacency(small_adjacency, ~np.eye(6, dtype=bool))
        assert isinstance(events, LinkEvents)
        # Everything not already linked was generated.
        total_possible = 6 * 5 // 2
        existing = small_adjacency.sum() // 2
        assert events.generation_count == total_possible - existing


def test_degree_counts(small_adjacency):
    np.testing.assert_array_equal(
        degree_counts(small_adjacency), [1, 2, 2, 3, 2, 2]
    )
