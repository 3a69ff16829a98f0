"""Tests for reactive cluster maintenance (the CLUSTER message source)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    HighestConnectivityClustering,
    LowestIdClustering,
    Role,
    check_properties,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation


def _sim_with_maintenance(n=80, rf=0.18, vf=0.05, seed=0, algorithm=None):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(algorithm or LowestIdClustering())
    sim.attach(maintenance)
    return sim, maintenance


class TestFormationOnAttach:
    def test_initial_state_valid(self):
        sim, maintenance = _sim_with_maintenance()
        assert check_properties(maintenance.state, sim.adjacency).ok

    def test_head_ratio_accessors(self):
        sim, maintenance = _sim_with_maintenance()
        assert maintenance.head_ratio() == pytest.approx(
            maintenance.cluster_count() / sim.n_nodes
        )


class TestInvariantPreservation:
    """The core maintenance guarantee: P1/P2 hold after every step."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lid_stays_valid_under_mobility(self, seed):
        sim, maintenance = _sim_with_maintenance(seed=seed)
        for _ in range(150):
            sim.step()
            violations = check_properties(maintenance.state, sim.adjacency)
            assert violations.ok, violations.describe()

    def test_hcc_stays_valid_under_mobility(self):
        sim, maintenance = _sim_with_maintenance(
            algorithm=HighestConnectivityClustering(), seed=3
        )
        for _ in range(100):
            sim.step()
            violations = check_properties(maintenance.state, sim.adjacency)
            assert violations.ok, violations.describe()

    def test_fast_mobility_stress(self):
        sim, maintenance = _sim_with_maintenance(vf=0.2, seed=4)
        for _ in range(100):
            sim.step()
            assert check_properties(maintenance.state, sim.adjacency).ok


class TestMessageAccounting:
    def test_no_messages_without_cluster_changes(self):
        # Static network: no link events, no CLUSTER messages.
        sim, maintenance = _sim_with_maintenance(vf=0.0)
        sim.stats.start_measuring()
        for _ in range(20):
            sim.step()
        assert sim.stats.message_count("cluster") == 0

    def test_messages_recorded_under_mobility(self):
        sim, maintenance = _sim_with_maintenance(seed=5)
        sim.stats.start_measuring()
        for _ in range(200):
            sim.step()
        assert sim.stats.message_count("cluster") > 0
        assert sim.stats.bit_count("cluster") == pytest.approx(
            sim.stats.message_count("cluster")
            * sim.params.messages.p_cluster
        )

    def test_member_head_break_sends_one_message(self, remove_links):
        """Manufacture a member-head break and count exactly 1 CLUSTER."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=6)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        # Find a member with another head in range (so it re-affiliates
        # rather than becoming a head; either way it is one message).
        member = int(members[0])
        head = int(state.head_of[member])
        remove_links(sim, [(member, head)])
        sim.stats.start_measuring()
        maintenance.on_link_down(sim, min(member, head), max(member, head), 0.0)
        assert sim.stats.message_count("cluster") == 1
        # The member found a new affiliation.
        assert state.head_of[member] != head or state.is_head(member)

    def test_head_merge_sends_cluster_size_messages(self, add_links):
        """A P1 violation re-affiliates the loser's whole cluster."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=7)
        state = maintenance.state
        heads = state.heads()
        assert len(heads) >= 2
        # Pick the two heads and force a link-up between them.
        winner, loser = int(heads[0]), int(heads[1])  # lid: lower id wins
        loser_cluster_size = len(state.cluster_nodes(loser))
        add_links(sim, [(winner, loser)])
        sim.stats.start_measuring()
        maintenance.on_link_up(sim, winner, loser, 0.0)
        # Loser resigns (1 message) + each former member re-affiliates.
        assert sim.stats.message_count("cluster") == loser_cluster_size
        assert not state.is_head(loser)
        assert check_properties(maintenance.state, sim.adjacency).ok

    def test_irrelevant_link_events_are_free(self, add_links):
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=8)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        # A link between two members of different clusters is ignored.
        pairs = [
            (int(a), int(b))
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if state.head_of[a] != state.head_of[b]
        ]
        if not pairs:
            pytest.skip("topology produced no cross-cluster member pair")
        u, v = pairs[0]
        sim.stats.start_measuring()
        add_links(sim, [(u, v)])
        maintenance.on_link_up(sim, min(u, v), max(u, v), 0.0)
        assert sim.stats.message_count("cluster") == 0


class TestChangeListeners:
    def test_listener_fires_per_affected_node(self, add_links):
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=9)
        state = maintenance.state
        heads = state.heads()
        winner, loser = int(heads[0]), int(heads[1])
        changed = []
        maintenance.add_change_listener(
            lambda _sim, node, _time: changed.append(node)
        )
        loser_cluster = set(int(x) for x in state.cluster_nodes(loser))
        add_links(sim, [(winner, loser)])
        maintenance.on_link_up(sim, winner, loser, 0.0)
        assert set(changed) == loser_cluster

    def test_lcc_member_does_not_switch_heads(self, add_links):
        """LCC: a member gaining a link to a better head stays put."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=10)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        heads = state.heads()
        for member in members:
            for head in heads:
                if head != state.head_of[member] and not sim.adjacency[member, head]:
                    add_links(sim, [(member, head)])
                    before = int(state.head_of[member])
                    maintenance.on_link_up(
                        sim, min(member, head), max(member, head), 0.0
                    )
                    assert int(state.head_of[member]) == before
                    return
        pytest.skip("no member/foreign-head pair available")
