"""Tests for the proactive intra-cluster routing protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering, Role
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import Simulation

from reference_routing import DenseIntraClusterRouting


def _stack(n=80, rf=0.2, vf=0.05, seed=0, **intra_kwargs):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance, **intra_kwargs)
    sim.attach(intra)
    sim.attach(maintenance)
    return sim, maintenance, intra


class TestOverheadAccounting:
    def test_intra_cluster_break_floods_cluster(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=1)
        state = maintenance.state
        # Find a member-head pair: breaking it is an intra-cluster event.
        member = int(np.flatnonzero(state.roles == Role.MEMBER)[0])
        head = int(state.head_of[member])
        size = len(state.cluster_nodes(head))
        sim.stats.start_measuring()
        intra.on_link_down(sim, min(member, head), max(member, head), 0.0)
        assert sim.stats.message_count("route") == size
        assert sim.stats.bit_count("route") == pytest.approx(
            size * sim.params.messages.p_route
        )

    def test_full_table_mode_bit_accounting(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=1, full_table=True)
        state = maintenance.state
        member = int(np.flatnonzero(state.roles == Role.MEMBER)[0])
        head = int(state.head_of[member])
        size = len(state.cluster_nodes(head))
        sim.stats.start_measuring()
        intra.on_link_down(sim, min(member, head), max(member, head), 0.0)
        assert sim.stats.bit_count("route") == pytest.approx(
            size * size * sim.params.messages.p_route
        )

    def test_cross_cluster_event_free(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=2)
        state = maintenance.state
        heads = state.heads()
        u, v = int(heads[0]), int(heads[1])  # different clusters
        sim.stats.start_measuring()
        intra.on_link_up(sim, min(u, v), max(u, v), 0.0)
        assert sim.stats.message_count("route") == 0

    def test_membership_change_updates_optional(self, remove_links):
        sim, maintenance, intra = _stack(
            vf=0.0, seed=3, update_on_membership_change=True
        )
        state = maintenance.state
        member = int(np.flatnonzero(state.roles == Role.MEMBER)[0])
        head = int(state.head_of[member])
        remove_links(sim, [(member, head)])
        sim.stats.start_measuring()
        # Deliver in attach order: intra first (old cluster flood), then
        # maintenance (re-affiliation) which triggers the listener.
        intra.on_link_down(sim, min(member, head), max(member, head), 0.0)
        before = sim.stats.message_count("route")
        maintenance.on_link_down(sim, min(member, head), max(member, head), 0.0)
        assert sim.stats.message_count("route") > before


class TestRoutingTables:
    def test_head_reachable_from_every_member(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=4)
        state = maintenance.state
        for head in state.heads():
            for member in state.members_of(int(head)):
                path = intra.path(sim, int(member), int(head))
                assert path is not None
                assert path[0] == member and path[-1] == head
                assert len(path) == 2  # one-hop clusters

    def test_member_to_member_via_head_or_direct(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=5)
        state = maintenance.state
        for head in state.heads():
            members = state.members_of(int(head))
            if len(members) >= 2:
                a, b = int(members[0]), int(members[1])
                path = intra.path(sim, a, b)
                assert path is not None
                assert len(path) <= 3  # at most member-head-member
                # Every hop must be a live link.
                for u, v in zip(path, path[1:]):
                    assert sim.has_link(u, v)
                return
        pytest.skip("no cluster with two members")

    def test_paths_are_shortest_in_cluster_subgraph(self):
        import networkx as nx

        sim, maintenance, intra = _stack(vf=0.0, seed=6)
        state = maintenance.state
        for head in state.heads():
            nodes = [int(x) for x in state.cluster_nodes(int(head))]
            sub = nx.Graph()
            sub.add_nodes_from(nodes)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1 :]:
                    if sim.has_link(u, v):
                        sub.add_edge(u, v)
            for u in nodes:
                for v in nodes:
                    if u == v:
                        continue
                    path = intra.path(sim, u, v)
                    if nx.has_path(sub, u, v):
                        assert path is not None
                        assert len(path) - 1 == nx.shortest_path_length(sub, u, v)
                    else:
                        assert path is None

    def test_cross_cluster_path_none(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=7)
        state = maintenance.state
        heads = state.heads()
        assert intra.path(sim, int(heads[0]), int(heads[1])) is None

    def test_tables_refresh_after_mobility(self):
        sim, maintenance, intra = _stack(seed=8)
        for _ in range(60):
            sim.step()
        state = maintenance.state
        # After movement, tables must still route member -> head.
        for head in state.heads():
            for member in state.members_of(int(head)):
                path = intra.path(sim, int(member), int(head))
                assert path == [int(member), int(head)]

    def test_table_size_tracks_cluster(self):
        sim, maintenance, intra = _stack(vf=0.0, seed=9)
        state = maintenance.state
        head = int(state.heads()[0])
        cluster = state.cluster_nodes(head)
        # The head reaches every member (one-hop), so its table holds
        # the full cluster.
        assert intra.table_size(sim, head) == len(cluster) - 1


class TestLazyTables:
    def _multi_hop_pair(self, sim, maintenance):
        """A same-cluster pair whose intra-cluster path has >= 2 hops."""
        state = maintenance.state
        for head in state.heads():
            nodes = [int(x) for x in state.cluster_nodes(int(head))]
            for a in nodes:
                for b in nodes:
                    if a != b and not sim.has_link(a, b):
                        return a, b
        pytest.skip("no cluster with a non-adjacent pair")

    def test_path_searches_only_from_sources_on_the_path(self, monkeypatch):
        sim, maintenance, intra = _stack(n=120, vf=0.0, seed=11)
        a, b = self._multi_hop_pair(sim, maintenance)
        searched = []
        bfs = intra._bfs

        def recording_bfs(source):
            searched.append(source)
            return bfs(source)

        monkeypatch.setattr(intra, "_bfs", recording_bfs)
        path = intra.path(sim, a, b)
        assert path is not None and len(path) >= 3
        # One BFS per forwarding node of the path, none for any other
        # node or cluster; a repeat query is served from the memo.
        assert searched == path[:-1]
        assert intra.path(sim, a, b) == path
        assert searched == path[:-1]
        # A link event starts a new clean period.
        intra.on_link_up(sim, a, b, 0.0)
        assert intra.path(sim, a, b) == path
        assert searched == path[:-1] * 2

    def test_late_source_sees_clean_time_snapshot(self):
        sim, maintenance, intra = _stack(n=120, vf=0.0, seed=12)
        dense = DenseIntraClusterRouting(maintenance)
        state = maintenance.state
        member = int(np.flatnonzero(state.roles == Role.MEMBER)[0])
        head = int(state.head_of[member])
        # Both tables go clean before the structure changes under them.
        assert intra.next_hop(sim, member, head) == head
        assert dense.next_hop(sim, member, head) == head
        others = [int(x) for x in state.cluster_nodes(head) if x != member]
        state.make_head(member)
        nodes = [member, *others]
        for u in nodes:
            assert intra.table_size(sim, u) == dense.table_size(sim, u)
            for v in nodes:
                assert intra.next_hop(sim, u, v) == dense.next_hop(sim, u, v)
