"""Link-distance geometry for nodes placed uniformly in a square.

The analytical model of the paper rests on the distribution of the
distance between two points placed independently and uniformly at random
in a square region (Miller, *Distribution of Link Distances in a
Wireless Network*, J. Res. NIST 106(2), 2001).  This module provides the
probability density function, cumulative distribution function, moments
and sampling helpers for that distribution (also known as the "square
line picking" distribution).

All functions accept either scalars or NumPy arrays and are vectorized.
Distances may be expressed either normalized to the square side
(``s = x / D`` with support ``[0, sqrt(2)]``) or in absolute units via
the ``side`` keyword.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SQRT2",
    "link_distance_pdf",
    "link_distance_cdf",
    "link_distance_mean",
    "link_distance_moment",
    "connectivity_probability",
    "torus_connectivity_probability",
    "sample_link_distances",
    "circle_square_overlap_fraction",
]

#: Maximum normalized distance between two points in a unit square.
SQRT2 = math.sqrt(2.0)

# Mean of the square line picking distribution for the unit square:
# (2 + sqrt(2) + 5*asinh(1)) / 15.
_MEAN_UNIT_SQUARE = (2.0 + SQRT2 + 5.0 * math.asinh(1.0)) / 15.0


def _normalize(x, side: float):
    """Return ``x / side`` as a float array, validating ``side``."""
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    return np.asarray(x, dtype=float) / side


def link_distance_pdf(x, side: float = 1.0):
    """Density of the distance between two uniform points in a square.

    Parameters
    ----------
    x:
        Distance (scalar or array).  Values outside ``[0, sqrt(2)*side]``
        have zero density.
    side:
        Side length ``D`` of the square.  Defaults to the unit square.

    Returns
    -------
    Density evaluated at ``x`` (same shape as ``x``).  For ``side != 1``
    the density is scaled so it integrates to one over absolute
    distances.
    """
    s = _normalize(x, side)
    out = np.zeros_like(s)

    near = (s >= 0.0) & (s <= 1.0)
    sn = s[near]
    out[near] = 2.0 * sn * (sn * sn - 4.0 * sn + math.pi)

    far = (s > 1.0) & (s <= SQRT2)
    sf = s[far]
    root = np.sqrt(sf * sf - 1.0)
    out[far] = 2.0 * sf * (
        4.0 * root - (sf * sf + 2.0 - math.pi) - 4.0 * np.arctan(root)
    )

    out /= side
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def link_distance_cdf(x, side: float = 1.0):
    """CDF of the distance between two uniform points in a square.

    This is the function :math:`F_d` of the paper's Claim 1 (its Eqn (2)
    cites Miller's result for the ``x <= side`` branch):

    .. math::

        F(s) = \\pi s^2 - \\tfrac{8}{3} s^3 + \\tfrac{1}{2} s^4,
        \\qquad 0 \\le s \\le 1,

    with ``s = x / side``.  The ``1 <= s <= sqrt(2)`` branch is the
    closed-form integral of the square line picking density, so the
    function is valid on the full support.
    """
    s = _normalize(x, side)
    out = np.zeros_like(s)

    near = (s >= 0.0) & (s <= 1.0)
    sn = s[near]
    out[near] = math.pi * sn**2 - (8.0 / 3.0) * sn**3 + 0.5 * sn**4

    far = (s > 1.0) & (s < SQRT2)
    sf = s[far]
    root = np.sqrt(sf * sf - 1.0)
    out[far] = (
        1.0 / 3.0
        + (math.pi - 2.0) * sf**2
        - 0.5 * sf**4
        + (8.0 / 3.0) * (sf * sf - 1.0) ** 1.5
        + 4.0 * root
        - 4.0 * sf**2 * np.arctan(root)
    )

    out[s >= SQRT2] = 1.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def link_distance_mean(side: float = 1.0) -> float:
    """Mean distance between two uniform points in a square of ``side``."""
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    return _MEAN_UNIT_SQUARE * side


def link_distance_moment(k: int, side: float = 1.0, num: int = 20001) -> float:
    """k-th raw moment of the link distance, by high-resolution quadrature.

    Closed forms exist for small ``k`` but a composite Simpson quadrature
    over the closed-form density (``num`` points, odd) is exact to well
    below any tolerance used in this project and keeps the code uniform
    for every ``k``.
    """
    if k < 0:
        raise ValueError(f"moment order must be non-negative, got {k}")
    if num < 3 or num % 2 == 0:
        raise ValueError(f"num must be an odd count >= 3, got {num}")
    s, h = np.linspace(0.0, SQRT2, num, retstep=True)
    f = s**k * link_distance_pdf(s)
    interior = 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
    return float(h / 3.0 * (f[0] + interior + f[-1])) * side**k


def connectivity_probability(r: float, side: float) -> float:
    """Probability that two random nodes in the square are within range ``r``.

    Exactly ``link_distance_cdf(r, side)``; named alias matching the
    paper's usage ("F_d(r) gives the probability that two randomly
    selected nodes ... are connected").
    """
    return float(link_distance_cdf(r, side))


def torus_connectivity_probability(r: float, side: float = 1.0) -> float:
    """Probability two uniform points on a square *torus* are within ``r``.

    The simulator wraps its region (the paper's own RWP variant does
    too), so its connectivity follows the torus metric, not the bounded
    square of Claim 1 — this function quantifies that gap.  With
    ``s = r / side``:

    * ``s <= 1/2`` — the disk fits inside the fundamental cell:
      probability is simply ``pi s^2``;
    * ``1/2 < s <= sqrt(2)/2`` — four circular segments poke across the
      cell edges and must not be double counted:
      ``pi s^2 - 4 (s^2 acos(1/(2s)) - (1/2) sqrt(s^2 - 1/4))``;
    * ``s > sqrt(2)/2`` — the disk covers the cell: probability 1.

    (On a torus the distance distribution is the same for every anchor
    point, so this is also the exact per-node degree fraction.)
    """
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    if r < 0.0:
        raise ValueError(f"r must be non-negative, got {r}")
    s = r / side
    if s <= 0.5:
        return math.pi * s * s
    if s >= math.sqrt(0.5):
        return 1.0
    segments = 4.0 * (
        s * s * math.acos(1.0 / (2.0 * s))
        - 0.5 * math.sqrt(s * s - 0.25)
    )
    return math.pi * s * s - segments


def sample_link_distances(n: int, side: float = 1.0, rng=None) -> np.ndarray:
    """Draw ``n`` i.i.d. link distances by sampling point pairs.

    Used by tests to cross-check the closed forms against empirical
    distributions.
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    rng = np.random.default_rng(rng)
    p = rng.uniform(0.0, side, size=(n, 2))
    q = rng.uniform(0.0, side, size=(n, 2))
    return np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])


def circle_square_overlap_fraction(r: float, side: float, num: int = 256) -> float:
    """Average fraction of a radius-``r`` disk that lies inside the square.

    For a node placed uniformly in the square, this is the expected
    fraction of its transmission disk that falls inside the region —
    the boundary-effect factor that distinguishes the bounded (BCV)
    model from the infinite-plane (CV) model.  Computed by Monte-Carlo-
    free grid quadrature over the node position using the exact
    circle/half-plane clipping area.
    """
    if r <= 0.0:
        return 1.0
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    # Position grid (midpoint rule) over one quadrant by symmetry.
    xs = (np.arange(num) + 0.5) / num * (side / 2.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")

    def _clip_area(cx, cy):
        # Area of disk of radius r centred at (cx, cy) inside [0, side]^2,
        # computed by 1-D quadrature over the chord length.
        t = np.linspace(-r, r, 129)
        half = np.sqrt(np.maximum(r * r - t * t, 0.0))
        x = cx[..., None] + t
        inside_x = (x >= 0.0) & (x <= side)
        lo = np.maximum(cy[..., None] - half, 0.0)
        hi = np.minimum(cy[..., None] + half, side)
        chord = np.maximum(hi - lo, 0.0) * inside_x
        return np.trapezoid(chord, t, axis=-1)

    areas = _clip_area(gx, gy)
    return float(np.mean(areas) / (math.pi * r * r))
