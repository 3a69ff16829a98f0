"""Cluster-head probability of the Lowest-ID clustering algorithm (Sec. 5).

The paper treats the cluster-head ratio ``P`` — the probability that a
randomly selected node ends cluster formation as a cluster-head — as the
algorithm-dependent knob of its overhead model, and derives it for LID:

A node is a cluster-head iff it has the smallest id among the nodes of
its closed neighborhood that have not yet joined a cluster.  If a node
is the ``i``-th smallest of its ``d + 1`` closed neighbors (each rank
equally likely), it becomes a head exactly when the ``i - 1`` smaller
nodes are all members of other clusters, which the paper approximates as
independent events of probability ``P_MEMBER = 1 - P`` each:

.. math::

    P = \\frac{1}{d+1} \\sum_{i=1}^{d+1} (1-P)^{i-1}
      = \\frac{1 - (1-P)^{d+1}}{(d+1)\\,P}.   \\tag{Eqn 16}

Because ``(1 - P)^{d+1} \\to 0`` as ``d`` grows (paper Fig. 4(a)), the
fixpoint admits the closed approximation

.. math::

    P \\approx \\frac{1}{\\sqrt{d + 1}},   \\tag{Eqn 17}

and substituting Claim 1's degree yields the paper's Eqn (18) giving
``P`` directly in terms of ``N``, ``rho`` and ``r``.
"""

from __future__ import annotations

import math

import numpy as np

from .degree import expected_degree
from .params import NetworkParameters

__all__ = [
    "lid_fixpoint_residual",
    "lid_head_probability_exact",
    "lid_head_probability_approx",
    "lid_head_probability",
    "lid_member_mass",
    "expected_cluster_count",
    "expected_cluster_size",
]

#: Bracket width at which the Eqn (16) bisection stops.
_XTOL = 1e-14


def lid_fixpoint_residual(p: float, degree: float) -> float:
    """Residual ``(d+1) p^2 - (1 - (1-p)^{d+1})`` of the Eqn (16) fixpoint.

    The fixpoint of Eqn (16) is the root of this residual in ``(0, 1]``.
    ``degree`` need not be an integer — Claim 1 produces real-valued
    expected degrees and the analysis is continuous in ``d``.
    """
    if degree < 0.0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    closed = degree + 1.0
    return closed * p * p - (1.0 - (1.0 - p) ** closed)


def lid_head_probability_exact(degree) -> float:
    """Solve Eqn (16) for ``P`` given the expected degree ``d``.

    The residual vanishes at ``p = 0`` with negative slope and is
    positive at ``p = 1``, so a unique root exists in ``(0, 1]``; every
    degree's root is located at once by bisecting the sign-changing
    bracket ``[1e-12, 1]`` down to ``_XTOL``.  ``degree`` may be an array.
    """
    degrees = np.atleast_1d(np.asarray(degree, dtype=float))
    if not np.all(np.isfinite(degrees) & (degrees >= 0.0)):
        # NaN or infinite degrees would bisect to a meaningless bound.
        raise ValueError("degree must be finite and non-negative")
    closed = degrees + 1.0
    lo = np.full_like(degrees, 1e-12)
    hi = np.ones_like(degrees)
    while (hi - lo).max(initial=0.0) > _XTOL:
        mid = 0.5 * (lo + hi)
        # lid_fixpoint_residual(mid, degrees) < 0, without re-validating.
        below = closed * mid * mid < 1.0 - (1.0 - mid) ** closed
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    # An isolated node is always its own cluster-head.
    out = np.where(degrees == 0.0, 1.0, 0.5 * (lo + hi))
    if np.ndim(degree) == 0:
        return float(out[0])
    return out


def lid_head_probability_approx(degree):
    """Paper Eqn (17): ``P ≈ 1 / sqrt(d + 1)``."""
    d = np.asarray(degree, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("degree must be non-negative")
    result = 1.0 / np.sqrt(d + 1.0)
    if np.ndim(degree) == 0:
        return float(result)
    return result


def lid_head_probability(
    n_nodes: float, density: float, tx_range, exact: bool = True
):
    """Paper Eqn (18): LID head probability from network parameters.

    Combines Claim 1's expected degree with the Eqn (16) fixpoint
    (``exact=True``, the default) or the Eqn (17) square-root
    approximation (``exact=False``).
    """
    degree = expected_degree(n_nodes, density, tx_range)
    if exact:
        return lid_head_probability_exact(degree)
    return lid_head_probability_approx(degree)


def lid_member_mass(p, degree):
    """The vanishing term ``(1 - P)^{d+1}`` plotted in paper Fig. 4(a).

    Returned as ``1 - (1-P)^{d+1}`` — the quantity the figure shows
    approaching one as the closed neighborhood ``d + 1`` grows.
    """
    p_arr = np.asarray(p, dtype=float)
    d_arr = np.asarray(degree, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise ValueError("p must lie in [0, 1]")
    result = 1.0 - (1.0 - p_arr) ** (d_arr + 1.0)
    if np.ndim(p) == 0 and np.ndim(degree) == 0:
        return float(result)
    return result


def expected_cluster_count(params: NetworkParameters, exact: bool = True) -> float:
    """Expected number of clusters ``n = N P`` under LID (paper Fig. 5)."""
    p = lid_head_probability(
        params.n_nodes, params.density, params.tx_range, exact=exact
    )
    return params.n_nodes * float(p)


def expected_cluster_size(params: NetworkParameters, exact: bool = True) -> float:
    """Expected cluster size ``m = 1 / P`` under LID."""
    p = lid_head_probability(
        params.n_nodes, params.density, params.tx_range, exact=exact
    )
    return 1.0 / float(p)
