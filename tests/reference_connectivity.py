"""Batch reference for the simulation's connectivity kernel.

:class:`~repro.sim.Simulation` steps through the incremental engine.
The simulations here override its one connectivity seam to rebuild the
edge set from scratch with ``compute_edges`` every step, so ``step``
diffs consecutive edge sets with ``diff_edge_sets`` — the batch kernel
the engine must match bit for bit.  The lockstep tests run them beside
the production simulation and demand identical edge sets and events.
"""

from __future__ import annotations

from repro.sim import Simulation
from repro.spatial import IncrementalStepResult, compute_edges


class BatchConnectivitySimulation(Simulation):
    """Edge set rebuilt with ``compute_edges(method=...)`` every step."""

    method: str

    def _connect(self, positions):
        edges = compute_edges(
            self.region, positions, self.params.tx_range, method=self.method
        )
        return IncrementalStepResult(
            edges=edges,
            events=None,
            rebuilt=True,
            at_risk=0,
            revalidate_seconds=0.0,
        )


class DenseReferenceSimulation(BatchConnectivitySimulation):
    """Batch rebuild through the dense ``O(N^2)`` metric."""

    method = "dense"


class GridReferenceSimulation(BatchConnectivitySimulation):
    """Batch rebuild through a fresh uniform grid index."""

    method = "grid"


#: The batch references every lockstep test compares against.
REFERENCE_SIMULATIONS = {
    "dense": DenseReferenceSimulation,
    "grid": GridReferenceSimulation,
}
