"""Dense reference implementations of the hybrid routing kernels.

These are the routing kernels as they were before they moved onto the
simulation's neighbor lists, kept verbatim in spirit: intra-cluster
tables rebuilt all-pairs over dense adjacency rows, backbone floods
that test every popped node's gateway status against its dense row,
and a route cache invalidated by scanning every cached path.  The
lockstep tests run them beside the production kernels and demand
identical answers, statistics and ``msg_tx`` sequences.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.clustering.base import Role
from repro.obs.attribution import (
    CAUSE_BROADCAST_FLOOD,
    CAUSE_LINK_BREAK_REPAIR,
    CAUSE_ROUTE_DISCOVERY,
    attributed,
)
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.routing.inter_cluster import BroadcastResult, DiscoveryResult
from repro.routing.messages import rerr_bits, rrep_bits, rreq_bits


def dense_is_gateway(state, adjacency, node) -> bool:
    """Per-node gateway test: a member with an out-of-cluster neighbor."""
    if state.roles[node] != Role.MEMBER:
        return False
    neighbors = np.flatnonzero(adjacency[node])
    return bool(np.any(state.head_of[neighbors] != state.head_of[node]))


def _forwards(state, adjacency, node) -> bool:
    return state.roles[node] == Role.HEAD or dense_is_gateway(
        state, adjacency, node
    )


def dense_discover_route(sim, state, source, destination, record_stats=True):
    """Backbone RREQ flood over dense adjacency rows."""
    if source == destination:
        return DiscoveryResult(
            path=[source], rreq_transmissions=0, rrep_transmissions=0
        )
    adjacency = sim.adjacency
    parents = {source: source}
    queue = deque([source])
    transmissions = 0
    found = False
    while queue:
        current = queue.popleft()
        if current != source and not _forwards(state, adjacency, current):
            continue
        transmissions += 1
        for neighbor in np.flatnonzero(adjacency[current]):
            neighbor = int(neighbor)
            if neighbor in parents:
                continue
            parents[neighbor] = current
            if neighbor == destination:
                found = True
                queue.clear()
                break
            queue.append(neighbor)
    if not found:
        result = DiscoveryResult(
            path=None, rreq_transmissions=transmissions, rrep_transmissions=0
        )
    else:
        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        result = DiscoveryResult(
            path=path,
            rreq_transmissions=transmissions,
            rrep_transmissions=len(path) - 1,
        )
    if record_stats:
        messages = sim.params.messages
        bits = (
            result.rreq_transmissions * rreq_bits(messages)
            + result.rrep_transmissions * rrep_bits(messages)
        )
        with attributed(sim, CAUSE_ROUTE_DISCOVERY, node=source):
            sim.stats.record(
                "route_discovery", result.total_transmissions, bits
            )
    return result


def dense_broadcast_flood(sim, source, state=None, record_stats=True):
    """Blind or backbone flood over dense adjacency rows."""
    adjacency = sim.adjacency
    reached = {source}
    queue = deque([source])
    transmissions = 0
    while queue:
        current = queue.popleft()
        if (
            current != source
            and state is not None
            and not _forwards(state, adjacency, current)
        ):
            continue
        transmissions += 1
        for neighbor in np.flatnonzero(adjacency[current]):
            neighbor = int(neighbor)
            if neighbor not in reached:
                reached.add(neighbor)
                queue.append(neighbor)
    result = BroadcastResult(reached=len(reached), transmissions=transmissions)
    if record_stats:
        bits = result.transmissions * rreq_bits(sim.params.messages)
        with attributed(sim, CAUSE_BROADCAST_FLOOD, node=source):
            sim.stats.record("broadcast", result.transmissions, bits)
    return result


class DenseIntraClusterRouting(IntraClusterRoutingProtocol):
    """Intra-cluster tables rebuilt all-pairs on the first query after a change."""

    def _rebuild_tables(self, sim) -> None:
        self._next_hop = {}
        state = self.maintenance.state
        adjacency = sim.adjacency
        for head in state.heads():
            node_set = set(int(x) for x in state.cluster_nodes(int(head)))
            for source in node_set:
                parents = {source: source}
                queue = deque([source])
                while queue:
                    current = queue.popleft()
                    for neighbor in np.flatnonzero(adjacency[current]):
                        neighbor = int(neighbor)
                        if neighbor in node_set and neighbor not in parents:
                            parents[neighbor] = current
                            queue.append(neighbor)
                for destination in parents:
                    if destination == source:
                        continue
                    hop = destination
                    while parents[hop] != source:
                        hop = parents[hop]
                    self._next_hop[(source, destination)] = hop
        self._tables_dirty = False

    def next_hop(self, sim, source, destination):
        if self._tables_dirty:
            self._rebuild_tables(sim)
        return self._next_hop.get((source, destination))

    def table_size(self, sim, node):
        if self._tables_dirty:
            self._rebuild_tables(sim)
        return sum(1 for (src, _dst) in self._next_hop if src == node)


class LinearScanHybridRouting(HybridRoutingProtocol):
    """Hybrid routing on dense discovery with a linearly scanned route cache."""

    def route(self, sim, source, destination):
        if source == destination:
            return [source]
        state = self.maintenance.state
        if state.same_cluster(source, destination):
            return self.intra.path(sim, source, destination)
        cached = self._cache.get((source, destination))
        if cached is not None:
            self.cache_hits += 1
            return cached
        result = dense_discover_route(sim, state, source, destination)
        self.discoveries += 1
        if not result.found:
            return None
        self._cache[(source, destination)] = result.path
        return result.path

    def on_link_down(self, sim, u, v, time):
        broken = []
        for key, path in self._cache.items():
            for a, b in zip(path, path[1:]):
                if (a, b) in ((u, v), (v, u)):
                    broken.append(key)
                    break
        for key in broken:
            path = self._cache.pop(key)
            upstream = 0
            for a, b in zip(path, path[1:]):
                upstream += 1
                if (a, b) in ((u, v), (v, u)):
                    break
            with attributed(
                sim, CAUSE_LINK_BREAK_REPAIR, nodes=path[:upstream]
            ):
                sim.stats.record(
                    "route_error",
                    upstream,
                    upstream * rerr_bits(sim.params.messages),
                )
