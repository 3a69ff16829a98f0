"""Lockstep equivalence of the sparse routing kernels with dense references.

The hybrid data plane walks the simulation's neighbor lists, BFSes
intra-cluster tables lazily per source and indexes its route cache by
link.  None of that may change an answer: every test here runs the
production kernels beside the dense reference copies in
``reference_routing.py`` and demands equal next hops, equal discovery
results, equal RERR accounting and an identical event trace.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.topology import backbone_nodes, gateway_nodes
from repro.clustering import (
    ClusterMaintenanceProtocol,
    ClusterState,
    LowestIdClustering,
    Role,
)
from repro.clustering.stability import ClusterDynamicsCollector
from repro.core.params import NetworkParameters
from repro.faults import attach_faults, build_plan
from repro.mobility import EpochRandomWaypointModel
from repro.obs import CollectingTracer
from repro.routing import (
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
    backbone_mask,
    broadcast_flood,
    discover_route,
    is_gateway,
)
from repro.sim import Simulation
from repro.sim.traffic import CbrFlow, HybridRouterAdapter, TrafficProtocol
from repro.spatial import adjacency_to_edges, edges_to_neighbor_lists

from reference_routing import (
    DenseIntraClusterRouting,
    LinearScanHybridRouting,
    dense_broadcast_flood,
    dense_discover_route,
    dense_is_gateway,
)

FAULTS = {
    "crash_rate": 0.02,
    "crash_recover_after": 1.0,
    "outages": [
        {"center": [0.3, 0.3], "radius": 0.2, "velocity": [0.05, 0.0],
         "start": 1.0, "duration": 1.5},
    ],
}


def _random_state(rng, n):
    """Random roles/affiliations, a share of them unassigned (``-1``)."""
    roles = rng.choice(
        [Role.UNASSIGNED, Role.MEMBER, Role.HEAD], size=n, p=[0.2, 0.6, 0.2]
    )
    heads = np.flatnonzero(roles == Role.HEAD)
    head_of = np.full(n, -1)
    head_of[heads] = heads
    members = np.flatnonzero(roles == Role.MEMBER)
    if len(heads):
        head_of[members] = rng.choice(heads, size=len(members))
    else:
        roles[members] = Role.UNASSIGNED
    return ClusterState(roles, head_of)


def _random_adjacency(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return upper | upper.T


class TestBackboneMask:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_node_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        state = _random_state(rng, n)
        adjacency = _random_adjacency(rng, n, p=float(rng.uniform(0.0, 0.3)))
        mask = backbone_mask(state, adjacency_to_edges(adjacency))
        expected = [
            state.roles[node] == Role.HEAD
            or dense_is_gateway(state, adjacency, node)
            for node in range(n)
        ]
        assert mask.tolist() == expected
        assert not mask[state.roles == Role.UNASSIGNED].any()
        gateways = [
            node for node in range(n) if dense_is_gateway(state, adjacency, node)
        ]
        assert [
            node for node in range(n) if is_gateway(state, adjacency, node)
        ] == gateways
        assert gateway_nodes(state, adjacency).tolist() == gateways
        assert backbone_nodes(state, adjacency).tolist() == (
            np.flatnonzero(expected).tolist()
        )

    def test_empty_edge_set_leaves_only_heads(self):
        state = _random_state(np.random.default_rng(0), 20)
        mask = backbone_mask(state, np.empty((0, 2), dtype=np.int64))
        assert mask.tolist() == (state.roles == Role.HEAD).tolist()

    def test_dynamics_gateway_set_matches(self):
        params = NetworkParameters.from_fractions(
            n_nodes=100, range_fraction=0.18, velocity_fraction=0.05
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=4
        )
        maintenance = sim.attach(ClusterMaintenanceProtocol(LowestIdClustering()))
        collector = ClusterDynamicsCollector(maintenance)
        for _ in range(20):
            sim.step()
            state = maintenance.state
            expected = {
                node for node in range(sim.n_nodes)
                if dense_is_gateway(state, sim.adjacency, node)
            }
            assert collector._gateway_set(sim) == expected


class TestNeighborLists:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_dense_adjacency(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        adjacency = _random_adjacency(rng, n, p=0.2)
        lists = edges_to_neighbor_lists(adjacency_to_edges(adjacency), n)
        assert lists == [np.flatnonzero(row).tolist() for row in adjacency]

    def test_cached_per_step(self):
        params = NetworkParameters.from_fractions(
            n_nodes=60, range_fraction=0.2, velocity_fraction=0.05
        )
        sim = Simulation(params, EpochRandomWaypointModel(params.velocity), seed=1)
        first = sim.neighbor_lists
        assert sim.neighbor_lists is first
        sim.step()
        assert sim.neighbor_lists is not first
        assert sim.neighbor_lists == [
            np.flatnonzero(row).tolist() for row in sim.adjacency
        ]


def _stack(seed, faults, reference):
    params = NetworkParameters.from_fractions(
        n_nodes=120, range_fraction=0.16, velocity_fraction=0.06
    )
    tracer = CollectingTracer()
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, 1.0),
        seed=seed,
        tracer=tracer,
    )
    if faults is not None:
        attach_faults(sim, build_plan(faults, params.n_nodes, 4.0, seed))
    intra_cls, hybrid_cls = (
        (DenseIntraClusterRouting, LinearScanHybridRouting)
        if reference
        else (IntraClusterRoutingProtocol, HybridRoutingProtocol)
    )
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = sim.attach(intra_cls(maintenance))
    sim.attach(maintenance)
    hybrid = sim.attach(hybrid_cls(maintenance, intra))
    pairs = np.random.default_rng(seed).choice(params.n_nodes, (6, 2), replace=False)
    flows = [CbrFlow(int(s), int(d), interval=0.1) for s, d in pairs]
    traffic = sim.attach(TrafficProtocol(flows, HybridRouterAdapter(hybrid)))
    return SimpleNamespace(
        sim=sim, state=maintenance.state, intra=intra, hybrid=hybrid,
        traffic=traffic, tracer=tracer,
    )


SPAN_FIELDS = ("span", "parent", "src_span", "dst_span")


def _normalised(records):
    """Records without sim ids, span ids renumbered by first appearance.

    Both ids come from process-wide counters, so two simulations run
    side by side number their spans differently.
    """
    span_ids: dict[int, int] = {}
    out = []
    for record in records:
        record = {k: v for k, v in record.items() if k != "sim"}
        for key in SPAN_FIELDS:
            if key in record:
                record[key] = span_ids.setdefault(record[key], len(span_ids))
        out.append(record)
    return out


class TestLockstep:
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_sparse_kernels_match_dense_reference(self, seed, faults):
        new = _stack(seed, faults, reference=False)
        ref = _stack(seed, faults, reference=True)
        rng = np.random.default_rng(100 + seed)
        n = new.sim.n_nodes
        new.sim.stats.start_measuring()
        ref.sim.stats.start_measuring()
        for _ in range(int(round(4.0 / new.sim.dt))):
            new.sim.step()
            ref.sim.step()
            assert np.array_equal(new.state.head_of, ref.state.head_of)
            for source, destination in rng.integers(0, n, (12, 2)).tolist():
                assert new.intra.next_hop(
                    new.sim, source, destination
                ) == ref.intra.next_hop(ref.sim, source, destination)
                assert new.intra.table_size(
                    new.sim, source
                ) == ref.intra.table_size(ref.sim, source)
            for source, destination in rng.integers(0, n, (2, 2)).tolist():
                assert discover_route(
                    new.sim, new.state, source, destination, record_stats=False
                ) == dense_discover_route(
                    ref.sim, ref.state, source, destination, record_stats=False
                )
                assert new.hybrid.route(
                    new.sim, source, destination
                ) == ref.hybrid.route(ref.sim, source, destination)
            source = int(rng.integers(0, n))
            assert broadcast_flood(
                new.sim, source, new.state
            ) == dense_broadcast_flood(ref.sim, source, ref.state)
        new.sim.stats.stop_measuring()
        ref.sim.stats.stop_measuring()

        if faults is not None:
            assert new.sim.faults.crashes_total > 0
            assert new.sim.faults.outage_enters_total > 0
        assert new.sim.stats.message_count("route_error") > 0
        for category in ("route_error", "route_discovery", "route", "broadcast"):
            assert new.sim.stats.message_count(category) == (
                ref.sim.stats.message_count(category)
            )
            assert new.sim.stats.bit_count(category) == (
                ref.sim.stats.bit_count(category)
            )
        assert new.hybrid.discoveries == ref.hybrid.discoveries
        assert new.hybrid.cache_hits == ref.hybrid.cache_hits
        assert new.hybrid.cached_routes == ref.hybrid.cached_routes
        assert new.traffic.traffic == ref.traffic.traffic
        records = _normalised(new.tracer.records)
        assert records == _normalised(ref.tracer.records)
        msg_tx = [r for r in records if r["event"] == "msg_tx"]
        assert any(r["category"] == "route_error" for r in msg_tx)
