"""Incremental temporal-coherence connectivity engine.

With ``recommended_step`` bounding per-step displacement to a few
percent of the transmission range, almost no links change between
consecutive steps — yet the batch edge engine re-tests every candidate
cell pair each step.  This module exploits that temporal coherence
while staying *exact*: every step returns the bit-identical sorted
edge set (and :class:`~repro.spatial.neighbors.LinkEvents`) that a full
rebuild would produce.  Tests enforce the equivalence property.

The scheme is an expanded-radius candidate cache validated by the
triangle inequality:

* At a **full validation** the internal grid (sized for
  ``tx_range + margin``) produces all candidate pairs within the
  expanded radius, their distances ``d0``, their edge status
  ``d0 <= r``, and a snapshot of the positions.
* Each **incremental step** computes every node's displacement since
  the snapshot under the region metric.  For a candidate pair with
  displacement sum ``s``, the metric's triangle inequality gives
  ``|d_now - d0| <= s``, so the pair is *safe* (status cannot have
  flipped) whenever ``s < |d0 - r|``; only the *at-risk* pairs get
  their distance recomputed.  Pairs outside the candidate set are
  covered globally: no pair separation can shrink by more than the two
  largest displacements, so while their sum stays below ``margin`` no
  non-candidate can have entered range — once it no longer does, the
  engine falls back to a full validation.
* A float-safety slack ``eps`` shrinks the safe band so borderline
  classifications always take the recompute path, where the distance
  is evaluated bit-identically to the batch engine (see below), so the
  resulting edge status can never disagree with a full rebuild.

Distances are computed by :meth:`_pair_distances`, which replaces the
round-based torus wrap of :meth:`SquareRegion.displacement` with
``min(|d|, side - |d|)``: IEEE-754 subtraction rounds symmetrically
(``fl(a - b) == -fl(b - a)``), so both forms produce the same wrapped
magnitude bit for bit and the final ``sqrt(dx*dx + dy*dy)`` matches
``region.distance`` exactly — while skipping ``np.round``, the single
most expensive op of the batch sweep.  Tests assert the bitwise
equality directly.

Teleports, mobility resets, and any other large jump are caught by the
same displacement test (the region metric bounds the torus shortcut
correctly), and :meth:`IncrementalConnectivityEngine.invalidate` lets
the simulation force a validation on external events such as
``fail_node``/``recover_node``.

This is the simulation's only connectivity kernel: every
:class:`~repro.sim.Simulation` steps through one engine, whatever its
size, density or step.  A step far above ``recommended_step`` moves
nodes past the margin every step, so every step is a full validation;
that stays exact and costs about one grid rebuild (README, Performance).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .grid_index import UniformGridIndex
from .neighbors import LinkEvents
from .region import Boundary, SquareRegion

__all__ = [
    "INCREMENTAL_MARGIN_FRACTION",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
]

#: Candidate-cache margin of the engine, as a fraction of ``tx_range``:
#: candidates are cached out to ``(1 + fraction) * tx_range``.  A wider
#: margin amortizes full validations over more steps but inflates the
#: per-step candidate set; 0.5 balances the two at the paper's default
#: velocities (see the README Performance section).
INCREMENTAL_MARGIN_FRACTION = 0.5


@dataclass(frozen=True)
class IncrementalStepResult:
    """Outcome of one engine step.

    ``edges`` is the canonical sorted ``(E, 2)`` edge set.  ``events``
    carries the link changes since the previous step when the fast
    mask-diff path produced them, and is ``None`` on validation steps
    (the caller diffs edge sets itself there).  ``revalidate_seconds``
    is the time spent classifying and recomputing at-risk pairs, kept
    separate so the simulation can charge it to a dedicated sub-phase.
    """

    edges: np.ndarray
    events: LinkEvents | None
    rebuilt: bool
    at_risk: int
    revalidate_seconds: float


class IncrementalConnectivityEngine:
    """Exact connectivity tracking that carries state across steps.

    Parameters
    ----------
    region:
        Square region whose metric (torus or Euclidean) governs
        distances.
    tx_range:
        Unit-disk transmission range.  Candidates are cached out to
        ``(1 + INCREMENTAL_MARGIN_FRACTION) * tx_range``.
    """

    def __init__(self, region: SquareRegion, tx_range: float) -> None:
        if tx_range <= 0.0:
            raise ValueError(f"tx_range must be positive, got {tx_range}")
        self.region = region
        self.tx_range = float(tx_range)
        self.margin = INCREMENTAL_MARGIN_FRACTION * self.tx_range
        # Slack subtracted from every safe-band test: borderline pairs
        # fall through to the recompute path, whose result is bit-exact
        # against the batch engine, so float rounding can never flip a
        # "safe" classification.  Way above the ~ulp-scale error the
        # displacement sums can accumulate, way below any physical
        # displacement.
        self._eps = 1e-9 * self.tx_range
        self._wrap = region.boundary is Boundary.TORUS
        self.grid = UniformGridIndex(region, self.tx_range + self.margin)
        self._ref: np.ndarray | None = None
        self._cand: np.ndarray | None = None
        self._ci: np.ndarray | None = None
        self._cj: np.ndarray | None = None
        self._risk_margin: np.ndarray | None = None
        self._base_edge: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        self._prev_mask: np.ndarray | None = None
        self._pending = True
        # Grown-on-demand scratch (keyed by role) so steady-state steps
        # allocate almost nothing.
        self._buffers: dict[str, np.ndarray] = {}
        self.full_rebuilds = 0
        self.incremental_steps = 0
        self.last_at_risk = 0
        self.at_risk_total = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Force a full validation on the next :meth:`step`.

        Called by the simulation on external events (``fail_node``,
        ``recover_node``) so the engine never reasons across a state
        change it cannot see in the positions.
        """
        self._pending = True

    def _scratch(self, name: str, size: int, dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size + (size >> 2) + 16, dtype=dtype)
            self._buffers[name] = buf
        return buf[:size]

    def _pair_distances(
        self, pos: np.ndarray, i: np.ndarray, j: np.ndarray
    ) -> np.ndarray:
        """Distances of the node pairs, bit-equal to ``region.distance``.

        The torus wrap uses ``min(|d|, side - |d|)`` instead of the
        round-based form — identical magnitudes under IEEE-754 (module
        docstring), at a fraction of the cost of ``np.round``.
        """
        x = pos[:, 0]
        y = pos[:, 1]
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        if self._wrap:
            side = self.region.side
            np.minimum(dx, side - dx, out=dx)
            np.minimum(dy, side - dy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    def _validate(self, pos: np.ndarray) -> np.ndarray:
        """Full candidate sweep at the expanded radius; reseeds all state."""
        i, j = self.grid.candidate_pairs_raw()
        n = len(pos)
        r_cand = self.grid.tx_range
        dist = self._pair_distances(pos, i, j)
        keep = dist <= r_cand
        aliased = self._wrap and self.grid.cells_per_side <= 2
        if aliased:
            # Aliased wrapped stencil offsets emit self pairs and
            # duplicates (see candidate_pairs_raw); drop / dedup them.
            keep &= i != j
        i, j, dist = i[keep], j[keep], dist[keep]
        keys = np.minimum(i, j) * n + np.maximum(i, j)
        if aliased:
            keys, first = np.unique(keys, return_index=True)
            dist = dist[first]
        else:
            # Keys are unique here, so a plain (unstable) sort is
            # deterministic and canonical.
            rank = np.argsort(keys)
            keys = keys[rank]
            dist = dist[rank]
        ci = keys // n
        cj = keys - ci * n
        self._ci = ci
        self._cj = cj
        self._cand = np.column_stack((ci, cj))
        self._base_edge = dist <= self.tx_range
        # Precomputed per-pair safe band |d0 - r| - eps: an incremental
        # step only compares displacement sums against it.
        self._risk_margin = np.abs(dist - self.tx_range)
        self._risk_margin -= self._eps
        k = len(keys)
        self._mask = self._scratch("mask", k, bool)
        self._prev_mask = self._scratch("prev_mask", k, bool)
        np.copyto(self._mask, self._base_edge)
        # The mobility model mutates its position buffer in place, so
        # the reference snapshot must be an owned copy.
        self._ref = pos.copy()
        self._pending = False
        self.full_rebuilds += 1
        self.last_at_risk = 0
        return self._cand[self._base_edge]

    def _needs_validation(self, disp: np.ndarray) -> bool:
        if disp.shape[0] < 2:
            return False
        # No pair separation can change by more than the sum of the two
        # largest displacements; once that reaches the margin a
        # non-candidate pair could have entered range.
        top2 = np.partition(disp, disp.shape[0] - 2)[-2:]
        return float(top2[0] + top2[1]) + self._eps >= self.margin

    def step(self, positions: np.ndarray) -> IncrementalStepResult:
        """Advance to ``positions`` and return the exact edge set."""
        pos = np.asarray(positions, dtype=float)
        self.grid.update(pos)
        rebuild = (
            self._pending
            or self._ref is None
            or len(pos) != len(self._ref)
        )
        disp = None
        if not rebuild:
            disp = self.region.distance(self._ref, pos)
            rebuild = self._needs_validation(disp)
        if rebuild:
            edges = self._validate(pos)
            return IncrementalStepResult(
                edges=edges,
                events=None,
                rebuilt=True,
                at_risk=0,
                revalidate_seconds=0.0,
            )
        started = perf_counter()
        k = len(self._ci)
        s = self._scratch("disp_sum", k, float)
        sj = self._scratch("disp_j", k, float)
        np.take(disp, self._ci, out=s)
        np.take(disp, self._cj, out=sj)
        s += sj
        at_risk = self._scratch("at_risk", k, bool)
        np.greater_equal(s, self._risk_margin, out=at_risk)
        # Double-buffered masks: the previous step's status becomes the
        # diff baseline for this step's link events.
        self._mask, self._prev_mask = self._prev_mask, self._mask
        np.copyto(self._mask, self._base_edge)
        risk_idx = np.flatnonzero(at_risk)
        if risk_idx.size:
            d_now = self._pair_distances(
                pos, self._ci[risk_idx], self._cj[risk_idx]
            )
            self._mask[risk_idx] = d_now <= self.tx_range
        flipped = self._scratch("flipped", k, bool)
        np.not_equal(self._prev_mask, self._mask, out=flipped)
        # Candidates are stored in canonical sorted order, so masked
        # selections are already sorted edge arrays — the events here
        # are bit-identical to diff_edge_sets on the two snapshots.
        flip_idx = np.flatnonzero(flipped)
        up = self._mask[flip_idx]
        generated = self._cand[flip_idx[up]]
        broken = self._cand[flip_idx[~up]]
        edges = self._cand.compress(self._mask, axis=0)
        self.incremental_steps += 1
        self.last_at_risk = int(risk_idx.size)
        self.at_risk_total += self.last_at_risk
        return IncrementalStepResult(
            edges=edges,
            events=LinkEvents(generated=generated, broken=broken),
            rebuilt=False,
            at_risk=self.last_at_risk,
            revalidate_seconds=perf_counter() - started,
        )
