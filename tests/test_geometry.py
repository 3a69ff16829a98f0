"""Tests for the link-distance distribution (repro.core.geometry)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from repro.core.geometry import (
    SQRT2,
    circle_square_overlap_fraction,
    connectivity_probability,
    link_distance_cdf,
    link_distance_mean,
    link_distance_moment,
    link_distance_pdf,
    sample_link_distances,
)


class TestCdfAnchors:
    def test_zero_at_origin(self):
        assert link_distance_cdf(0.0) == 0.0

    def test_one_at_diagonal(self):
        assert link_distance_cdf(SQRT2) == pytest.approx(1.0)

    def test_one_beyond_support(self):
        assert link_distance_cdf(5.0) == 1.0

    def test_negative_distance_zero(self):
        assert link_distance_cdf(-0.5) == 0.0

    def test_paper_polynomial_branch(self):
        # F(s) = pi s^2 - 8/3 s^3 + s^4/2 on [0, 1].
        s = 0.37
        expected = math.pi * s**2 - (8.0 / 3.0) * s**3 + 0.5 * s**4
        assert link_distance_cdf(s) == pytest.approx(expected)

    def test_branch_continuity_at_one(self):
        below = link_distance_cdf(1.0 - 1e-9)
        above = link_distance_cdf(1.0 + 1e-9)
        assert below == pytest.approx(above, abs=1e-6)

    def test_value_at_one(self):
        # F(1) = pi - 13/6.
        assert link_distance_cdf(1.0) == pytest.approx(math.pi - 13.0 / 6.0)

    def test_side_scaling(self):
        # F(x; side=D) == F(x/D; side=1).
        assert link_distance_cdf(30.0, side=100.0) == pytest.approx(
            link_distance_cdf(0.3)
        )

    def test_invalid_side_raises(self):
        with pytest.raises(ValueError):
            link_distance_cdf(0.5, side=0.0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, SQRT2, 17)
        vector = link_distance_cdf(xs)
        scalars = np.array([link_distance_cdf(float(x)) for x in xs])
        np.testing.assert_allclose(vector, scalars)


class TestPdf:
    def test_integrates_to_one(self):
        s = np.linspace(0.0, SQRT2, 4001)
        assert simpson(link_distance_pdf(s), x=s) == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        s = np.linspace(0.0, SQRT2, 1001)
        assert np.all(link_distance_pdf(s) >= -1e-12)

    def test_zero_outside_support(self):
        assert link_distance_pdf(-0.1) == 0.0
        assert link_distance_pdf(SQRT2 + 0.1) == 0.0

    def test_is_derivative_of_cdf(self):
        for s in (0.2, 0.7, 1.1, 1.3):
            h = 1e-6
            numeric = (link_distance_cdf(s + h) - link_distance_cdf(s - h)) / (2 * h)
            assert link_distance_pdf(s) == pytest.approx(numeric, rel=1e-4)

    def test_density_scales_with_side(self):
        # pdf integrates to one in absolute units for any side.
        side = 7.0
        x = np.linspace(0.0, SQRT2 * side, 4001)
        assert simpson(link_distance_pdf(x, side=side), x=x) == pytest.approx(
            1.0, abs=1e-6
        )


class TestMoments:
    def test_mean_closed_form(self):
        expected = (2.0 + SQRT2 + 5.0 * math.asinh(1.0)) / 15.0
        assert link_distance_mean() == pytest.approx(expected)

    def test_mean_matches_quadrature(self):
        assert link_distance_moment(1) == pytest.approx(
            link_distance_mean(), rel=1e-6
        )

    def test_second_moment_known_value(self):
        # E[L^2] = 1/3 for the unit square.
        assert link_distance_moment(2) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_zeroth_moment_is_one(self):
        assert link_distance_moment(0) == pytest.approx(1.0, rel=1e-6)

    def test_mean_scales_linearly(self):
        assert link_distance_mean(3.0) == pytest.approx(3.0 * link_distance_mean())

    def test_invalid_moment_raises(self):
        with pytest.raises(ValueError):
            link_distance_moment(-1)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            link_distance_moment(1, num=20000)

    @pytest.mark.parametrize("k", range(5))
    def test_matches_scipy_simpson(self, k):
        for side, num in ((1.0, 20001), (2.5, 401)):
            s = np.linspace(0.0, SQRT2, num)
            expected = (
                float(simpson(s**k * link_distance_pdf(s), x=s)) * side**k
            )
            assert link_distance_moment(k, side=side, num=num) == (
                pytest.approx(expected, rel=0.0, abs=1e-10)
            )


class TestEmpirical:
    def test_cdf_matches_sampling(self):
        samples = sample_link_distances(100_000, rng=7)
        for threshold in (0.2, 0.5, 0.9, 1.2):
            empirical = float(np.mean(samples <= threshold))
            assert link_distance_cdf(threshold) == pytest.approx(
                empirical, abs=0.01
            )

    def test_sampling_respects_side(self):
        samples = sample_link_distances(10_000, side=5.0, rng=3)
        assert samples.max() <= 5.0 * SQRT2
        assert samples.mean() == pytest.approx(link_distance_mean(5.0), rel=0.05)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            sample_link_distances(-1)


class TestConnectivityProbability:
    def test_alias_of_cdf(self):
        assert connectivity_probability(0.3, 1.0) == link_distance_cdf(0.3)

    def test_monotone_in_range(self):
        values = [connectivity_probability(r, 1.0) for r in np.linspace(0, 1.4, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestOverlapFraction:
    def test_tiny_radius_no_truncation(self):
        assert circle_square_overlap_fraction(1e-4, 1.0) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_larger_radius_truncates(self):
        fraction = circle_square_overlap_fraction(0.4, 1.0, num=64)
        assert 0.4 < fraction < 1.0

    def test_matches_cdf_identity(self):
        # E[overlap area]/a^2 equals F(r): average disk overlap equals
        # the connectivity probability.
        r = 0.25
        fraction = circle_square_overlap_fraction(r, 1.0, num=128)
        expected = link_distance_cdf(r) / (math.pi * r * r)
        assert fraction == pytest.approx(expected, rel=0.01)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=SQRT2))
def test_cdf_in_unit_interval(s):
    value = link_distance_cdf(s)
    assert 0.0 <= value <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=SQRT2),
    st.floats(min_value=0.0, max_value=SQRT2),
)
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert link_distance_cdf(lo) <= link_distance_cdf(hi) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=SQRT2 - 1e-3))
def test_pdf_nonnegative_everywhere(s):
    assert link_distance_pdf(s) >= -1e-12
