"""Proactive intra-cluster routing (the hybrid protocol's inner half).

The paper's ROUTE analysis (Section 3.5.3): within every cluster, all
nodes keep proactive routes to all other nodes of the cluster; every
link change *inside* a cluster triggers one round of route-update
broadcasting in which each node of that cluster transmits once.  This
protocol reproduces exactly that accounting — its measured per-node
message rate is the simulation counterpart of Eqn (13) — and also
maintains real intra-cluster routing tables (shortest paths over the
cluster subgraph) so the hybrid protocol can actually forward packets.

Attach order matters: this protocol must be attached *before* the
cluster maintenance protocol so that, for a link break, it still sees
the pre-repair membership (a member–head break is an intra-cluster
change of the old cluster).

The tables are computed lazily, one source at a time: a query BFSes
only from the node it asks about and memoises the result until the
next link event or membership change.  Every BFS of one clean period
runs on a snapshot (neighbor lists, ``head_of``, ``roles``) taken when
the period began, so the answers equal those of an all-pairs rebuild
at that moment however late a source is first asked about.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..obs.attribution import CAUSE_INTRA_CLUSTER_UPDATE, attributed
from ..sim.engine import Protocol, Simulation
from ..clustering.base import HEAD
from ..clustering.maintenance import ClusterMaintenanceProtocol
from .messages import route_update_bits

__all__ = ["IntraClusterRoutingProtocol"]


class IntraClusterRoutingProtocol(Protocol):
    """Cluster-scoped proactive distance-vector routing.

    Parameters
    ----------
    maintenance:
        The cluster maintenance protocol owning the cluster state.
    full_table:
        When true, each update message carries the full intra-cluster
        table (``m`` entries); otherwise a single changed entry.  This
        mirrors the two readings of Eqn (14).
    update_on_membership_change:
        When true, affiliation changes also trigger an update round in
        the node's new cluster — traffic the paper's lower bound
        deliberately omits (ablation knob).
    topology:
        ``"all"`` (default): any link change between two co-clustered
        nodes triggers an update round (the paper's reading).
        ``"star"``: only member↔own-head link changes trigger — the
        routing topology is the cluster star, whose link count the
        analysis knows *exactly* (``N(1-P)``), making the
        analysis/simulation comparison approximation-free.
    """

    name = "intra-cluster-routing"

    def __init__(
        self,
        maintenance: ClusterMaintenanceProtocol,
        full_table: bool = False,
        update_on_membership_change: bool = False,
        topology: str = "all",
    ) -> None:
        if topology not in ("all", "star"):
            raise ValueError(
                f"topology must be 'all' or 'star', got {topology!r}"
            )
        self.maintenance = maintenance
        self.full_table = full_table
        self.update_on_membership_change = update_on_membership_change
        self.topology = topology
        self._tables_dirty = True
        #: source -> {destination: first hop}, filled lazily.
        self._tables: dict[int, dict[int, int]] = {}
        #: (neighbor lists, head_of, roles) taken when the current
        #: clean period began.
        self._snapshot: tuple[list[list[int]], list[int], list[int]] | None = None
        if update_on_membership_change:
            maintenance.add_change_listener(self._on_membership_change)

    # ------------------------------------------------------------------
    # Overhead accounting
    # ------------------------------------------------------------------
    def _broadcast_round(self, sim: Simulation, head: int) -> None:
        """One update round: every node of ``head``'s cluster transmits."""
        state = self.maintenance.state
        size = int(np.count_nonzero(state.head_of == head))
        entries = size if self.full_table else 1
        bits = route_update_bits(sim.params.messages, entries)
        # One transmission per cluster node, charged to each evenly; only
        # the attribution ledger needs to know which nodes those are.
        cluster = None if sim.attribution is None else state.cluster_nodes(head)
        with attributed(
            sim, CAUSE_INTRA_CLUSTER_UPDATE, nodes=cluster, cluster=int(head)
        ):
            sim.stats.record("route", size, size * bits)

    def _handle_link_event(self, sim: Simulation, u: int, v: int) -> None:
        state = self.maintenance.state
        if state.same_cluster(u, v):
            is_star_link = state.head_of[u] == v or state.head_of[v] == u
            if self.topology == "all" or is_star_link:
                self._broadcast_round(sim, int(state.head_of[u]))
        self._tables_dirty = True

    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def _on_membership_change(self, sim: Simulation, node: int, time: float) -> None:
        """Affiliation changed: flood the node's *new* cluster (optional)."""
        head = int(self.maintenance.state.head_of[node])
        self._broadcast_round(sim, head)
        self._tables_dirty = True

    # ------------------------------------------------------------------
    # Actual routing tables
    # ------------------------------------------------------------------
    def _source_table(self, sim: Simulation, source: int) -> dict[int, int]:
        """``source``'s table: first hop to every cluster node it reaches."""
        if self._tables_dirty:
            state = self.maintenance.state
            self._tables = {}
            self._snapshot = (
                sim.neighbor_lists,
                state.head_of.tolist(),
                state.roles.tolist(),
            )
            self._tables_dirty = False
        table = self._tables.get(source)
        if table is None:
            table = self._tables[source] = self._bfs(source)
        return table

    def _bfs(self, source: int) -> dict[int, int]:
        """BFS restricted to ``source``'s cluster on the clean-time snapshot.

        Neighbors are visited in ascending order, so the first hops
        equal those of the dense all-pairs BFS this replaces.  A node
        whose head is unassigned or not a head has no table.
        """
        neighbor_lists, head_of, roles = self._snapshot
        head = head_of[source]
        if head < 0 or roles[head] != HEAD:
            return {}
        first_hop = {source: source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            via = first_hop[current]
            for neighbor in neighbor_lists[current]:
                if neighbor not in first_hop and head_of[neighbor] == head:
                    first_hop[neighbor] = neighbor if via == source else via
                    queue.append(neighbor)
        del first_hop[source]
        return first_hop

    def next_hop(self, sim: Simulation, source: int, destination: int) -> int | None:
        """Next hop from ``source`` toward ``destination`` inside a cluster.

        Returns ``None`` when the two nodes are not in the same cluster
        or the cluster subgraph does not connect them (members of a
        one-hop cluster may be mutually unreachable without the head).
        """
        return self._source_table(sim, source).get(destination)

    def path(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Full intra-cluster path, or ``None`` when not routable."""
        if not self.maintenance.state.same_cluster(source, destination):
            return None
        path = [source]
        current = source
        for _ in range(sim.n_nodes):
            hop = self.next_hop(sim, current, destination)
            if hop is None:
                return None
            path.append(hop)
            if hop == destination:
                return path
            current = hop
        return None  # pragma: no cover - cycle guard

    def table_size(self, sim: Simulation, node: int) -> int:
        """Number of destinations ``node`` keeps routes for.

        The paper notes storage is proportional to the cluster size.
        """
        return len(self._source_table(sim, node))
