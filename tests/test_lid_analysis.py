"""Tests for the LID head-probability analysis (repro.core.lid_analysis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.core.degree import expected_degree
from repro.core.lid_analysis import (
    expected_cluster_count,
    expected_cluster_size,
    lid_fixpoint_residual,
    lid_head_probability,
    lid_head_probability_approx,
    lid_head_probability_exact,
    lid_member_mass,
)


class TestFixpointResidual:
    def test_zero_at_origin(self):
        assert lid_fixpoint_residual(0.0, 10.0) == pytest.approx(0.0)

    def test_positive_at_one(self):
        # g(1) = d > 0.
        assert lid_fixpoint_residual(1.0, 10.0) == pytest.approx(10.0)

    def test_negative_near_zero(self):
        assert lid_fixpoint_residual(1e-6, 10.0) < 0.0

    def test_root_satisfies_eqn16(self):
        for degree in (0.5, 3.0, 20.0, 150.0):
            p = lid_head_probability_exact(degree)
            # Eqn (16): P = (1 - (1-P)^(d+1)) / ((d+1) P).
            rhs = (1.0 - (1.0 - p) ** (degree + 1.0)) / ((degree + 1.0) * p)
            assert p == pytest.approx(rhs, rel=1e-9)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            lid_fixpoint_residual(0.5, -1.0)


class TestExactProbability:
    def test_isolated_node_is_head(self):
        assert lid_head_probability_exact(0.0) == 1.0

    def test_degree_one_known_value(self):
        # (d+1)P^2 = 1-(1-P)^2 with d=1: 2P^2 = 2P - P^2 -> P = 2/3.
        assert lid_head_probability_exact(1.0) == pytest.approx(2.0 / 3.0)

    def test_decreasing_in_degree(self):
        degrees = np.linspace(0.0, 200.0, 40)
        ps = lid_head_probability_exact(degrees)
        assert np.all(np.diff(ps) <= 1e-12)

    def test_vectorized_matches_scalar(self):
        degrees = np.array([0.0, 1.0, 7.5, 64.0])
        vector = lid_head_probability_exact(degrees)
        scalars = [lid_head_probability_exact(float(d)) for d in degrees]
        np.testing.assert_allclose(vector, scalars)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            lid_head_probability_exact(-0.5)

    @pytest.mark.parametrize("degree", [np.nan, np.inf])
    def test_non_finite_degree_rejected(self, degree):
        with pytest.raises(ValueError, match="finite"):
            lid_head_probability_exact(degree)
        with pytest.raises(ValueError, match="finite"):
            lid_head_probability_exact(np.array([1.0, degree]))


class TestScipyReference:
    """The NumPy bisection reproduces scipy's Brent solver (same xtol)."""

    DEGREES = (0.0, 1e-9, 1e-3, 0.5, 1.0, 10.0, 150.0, 1e4)

    @staticmethod
    def _brentq(degree):
        if degree == 0.0:
            return 1.0
        return brentq(
            lid_fixpoint_residual, 1e-12, 1.0, args=(degree,), xtol=1e-14
        )

    def test_scalar_roots_match_brentq(self):
        for degree in self.DEGREES:
            assert lid_head_probability_exact(degree) == pytest.approx(
                self._brentq(degree), rel=0.0, abs=1e-12
            )

    def test_array_roots_match_brentq(self):
        degrees = np.array([self.DEGREES, self.DEGREES[::-1]])
        roots = lid_head_probability_exact(degrees)
        assert roots.shape == degrees.shape
        expected = np.vectorize(self._brentq)(degrees)
        np.testing.assert_allclose(roots, expected, rtol=0.0, atol=1e-12)

    def test_empty_array(self):
        assert lid_head_probability_exact(np.array([])).shape == (0,)


class TestApproximation:
    def test_eqn17_formula(self):
        assert lid_head_probability_approx(8.0) == pytest.approx(1.0 / 3.0)

    def test_converges_to_exact(self):
        # Fig 4(b): the approximation tightens as d grows.
        errors = []
        for degree in (2.0, 10.0, 50.0, 250.0):
            exact = lid_head_probability_exact(degree)
            approx = lid_head_probability_approx(degree)
            errors.append(abs(exact - approx) / exact)
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.005

    def test_always_upper_bound(self):
        # 1/sqrt(d+1) >= exact root (dropping (1-P)^(d+1) raises P).
        for degree in (1.0, 5.0, 30.0):
            assert lid_head_probability_approx(degree) >= lid_head_probability_exact(
                degree
            )


class TestMemberMass:
    def test_fig4a_convergence(self):
        # 1-(1-P)^(d+1) -> 1 along the fixpoint curve.
        masses = []
        for degree in (1.0, 4.0, 16.0, 64.0):
            p = lid_head_probability_exact(degree)
            masses.append(lid_member_mass(p, degree))
        assert masses == sorted(masses)
        assert masses[-1] > 0.99

    def test_bounds(self):
        assert lid_member_mass(0.0, 10.0) == 0.0
        assert lid_member_mass(1.0, 10.0) == 1.0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            lid_member_mass(1.5, 10.0)


class TestNetworkLevel:
    def test_eqn18_composition(self):
        n, rho, r = 400, 400.0, 0.1
        degree = float(expected_degree(n, rho, r))
        assert lid_head_probability(n, rho, r) == pytest.approx(
            lid_head_probability_exact(degree)
        )
        assert lid_head_probability(n, rho, r, exact=False) == pytest.approx(
            lid_head_probability_approx(degree)
        )

    def test_cluster_count_and_size(self, params):
        count = expected_cluster_count(params)
        size = expected_cluster_size(params)
        assert count == pytest.approx(
            params.n_nodes
            * lid_head_probability(params.n_nodes, params.density, params.tx_range)
        )
        assert count * size == pytest.approx(params.n_nodes, rel=1e-9)

    def test_fewer_clusters_with_longer_range(self, params):
        longer = params.with_(tx_range=2 * params.tx_range)
        assert expected_cluster_count(longer) < expected_cluster_count(params)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=500.0))
def test_probability_in_unit_interval_property(degree):
    p = lid_head_probability_exact(degree)
    assert 0.0 < p <= 1.0
    # And the approximation brackets it from above.
    assert p <= lid_head_probability_approx(degree) + 1e-12
