"""Reference implementations of the per-link-event control-plane handlers.

These are the handlers as they were before they moved onto plain-int
roles and the simulation's neighbor lists: cluster maintenance compares
roles against the ``Role`` enum and finds neighboring heads by scanning
dense adjacency rows, intra-cluster update rounds take their size from
``cluster_nodes``, and the simulation drops its neighbor lists on every
step and rebuilds them from the edge set.  The lockstep tests run them
beside the production handlers and demand identical traces.
"""

from __future__ import annotations

import numpy as np

from repro.clustering import ClusterMaintenanceProtocol, Role
from repro.obs.attribution import (
    CAUSE_CRASH_RECOVERY,
    CAUSE_HEAD_ADJACENCY_REPAIR,
    CAUSE_INTRA_CLUSTER_UPDATE,
    CAUSE_REAFFILIATION,
    attributed,
)
from repro.routing import IntraClusterRoutingProtocol
from repro.routing.messages import route_update_bits
from repro.sim import Simulation


class RebuildingSimulation(Simulation):
    """Neighbor lists rebuilt every step; ``neighbors_of`` from dense rows."""

    def _advance_edges(self, new_edges, broken, generated):
        self.edges = new_edges

    def neighbors_of(self, node):
        return np.flatnonzero(self.adjacency[node])


class EnumClusterMaintenance(ClusterMaintenanceProtocol):
    """Maintenance on enum compares and dense neighbor rows."""

    def _neighboring_heads(self, sim, node):
        neighbors = sim.neighbors_of(node)
        return [int(v) for v in neighbors[self.state.roles[neighbors] == Role.HEAD]]

    def _best_head(self, candidates):
        return int(candidates[np.argmax(self._priority[candidates])])

    def on_link_down(self, sim, u, v, time):
        state = self.state
        if state.roles[u] == Role.MEMBER and state.head_of[u] == v:
            orphan = u
        elif state.roles[v] == Role.MEMBER and state.head_of[v] == u:
            orphan = v
        else:
            return
        cause = CAUSE_REAFFILIATION
        if sim.faults is not None and sim.faults.is_fault_transition(u, v):
            cause = CAUSE_CRASH_RECOVERY
        spans = sim.spans
        span_open = spans.enabled
        if span_open:
            spans.start(
                "repair:member-break", "handler", time, u=int(u), v=int(v)
            )
        self._reaffiliate(sim, orphan, time, cause=cause)
        if span_open:
            spans.end(time)

    def on_link_up(self, sim, u, v, time):
        state = self.state
        if (
            self.dynamic_priority
            and state.roles[u] == Role.HEAD
            and state.roles[v] == Role.HEAD
        ):
            self._priority = np.asarray(
                self.algorithm.head_priority(sim.adjacency), dtype=float
            )
        if state.roles[u] == Role.HEAD and state.roles[v] == Role.HEAD:
            cause = CAUSE_HEAD_ADJACENCY_REPAIR
            if sim.faults is not None and sim.faults.is_fault_transition(u, v):
                cause = CAUSE_CRASH_RECOVERY
            if self._priority[u] >= self._priority[v]:
                self._resign_head(sim, v, u, time, cause=cause)
            else:
                self._resign_head(sim, u, v, time, cause=cause)


class ClusterNodesIntraRouting(IntraClusterRoutingProtocol):
    """Update rounds sized by materialising the cluster's node list."""

    def _broadcast_round(self, sim, head):
        cluster = self.maintenance.state.cluster_nodes(head)
        size = len(cluster)
        entries = size if self.full_table else 1
        bits = route_update_bits(sim.params.messages, entries)
        with attributed(
            sim, CAUSE_INTRA_CLUSTER_UPDATE, nodes=cluster, cluster=int(head)
        ):
            sim.stats.record("route", size, size * bits)
