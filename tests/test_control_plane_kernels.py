"""Exactness of the O(degree) control plane.

The simulation keeps its neighbor lists current from each step's link
events instead of rebuilding them, dispatches link events only to hooks
a protocol overrides, and the maintenance and intra-cluster handlers
work on plain-int roles and those lists.  None of that may change a
result: the tests here compare the delta-maintained lists with a
rebuild after every step, pin copy-on-write and hook resolution, and
run the production handlers in lockstep with the reference copies in
``reference_control.py``, demanding an identical trace.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    ClusterState,
    LowestIdClustering,
    Role,
    sequential_formation,
)
from repro.clustering.base import HEAD, MEMBER, UNASSIGNED
from repro.core.params import NetworkParameters
from repro.faults import attach_faults, build_plan
from repro.mobility import EpochRandomWaypointModel
from repro.obs import CollectingTracer
from repro.obs.attribution import attach_attribution
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Protocol, Simulation
from repro.spatial import edges_to_neighbor_lists

from reference_connectivity import GridReferenceSimulation
from reference_control import (
    ClusterNodesIntraRouting,
    EnumClusterMaintenance,
    RebuildingSimulation,
)
from test_routing_kernels import FAULTS, _normalised


def _sim(seed, faults=None, cls=Simulation, tracer=None):
    params = NetworkParameters.from_fractions(
        n_nodes=120, range_fraction=0.16, velocity_fraction=0.06
    )
    sim = cls(
        params,
        EpochRandomWaypointModel(params.velocity, 1.0),
        seed=seed,
        tracer=tracer,
    )
    if faults is not None:
        attach_faults(sim, build_plan(faults, params.n_nodes, 4.0, seed))
    return sim


class TestRoleConstants:
    def test_equal_enum_values(self):
        assert (HEAD, MEMBER, UNASSIGNED) == (
            int(Role.HEAD), int(Role.MEMBER), int(Role.UNASSIGNED)
        )
        assert all(type(c) is int for c in (HEAD, MEMBER, UNASSIGNED))


class TestDeltaNeighborLists:
    @pytest.mark.parametrize(
        "cls",
        [Simulation, GridReferenceSimulation],
        ids=["incremental", "grid"],
    )
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_equal_rebuild_after_every_step(
        self, seed, faults, cls, remove_links
    ):
        sim = _sim(seed, faults, cls)
        sim.attach(ClusterMaintenanceProtocol(LowestIdClustering()))
        n = sim.n_nodes
        events = 0
        for step in range(int(round(4.0 / sim.dt))):
            if step % 10 == 5:
                # An external assignment drops the lists; the next step
                # must not apply events that diff some other edge set.
                remove_links(sim, sim.edges[::7].tolist())
                assert sim.neighbor_lists == edges_to_neighbor_lists(
                    sim.edges, n
                )
            events += sim.step().change_count
            assert sim.neighbor_lists == edges_to_neighbor_lists(sim.edges, n)
        assert events > 0
        if faults is not None:
            assert sim.faults.crashes_total > 0
            assert sim.faults.outage_enters_total > 0

    def test_copy_on_write(self):
        sim = _sim(5)
        touched = set()
        while not touched:
            before = sim.neighbor_lists
            rows = [list(row) for row in before]
            events = sim.step()
            touched = {
                int(node)
                for pairs in (events.broken, events.generated)
                for node in pairs.ravel()
            }
        after = sim.neighbor_lists
        assert after is not before
        assert before == rows
        assert after != rows
        for node in range(sim.n_nodes):
            assert (after[node] is before[node]) == (node not in touched)

    def test_neighbors_of_reads_the_lists(self):
        sim = _sim(6)
        for _ in range(5):
            sim.step()
        for node in range(sim.n_nodes):
            neighbors = sim.neighbors_of(node)
            assert neighbors.dtype == np.intp
            assert neighbors.tolist() == np.flatnonzero(
                sim.adjacency[node]
            ).tolist()


class _Recorder(Protocol):
    name = "recorder"

    def __init__(self):
        self.downs = []

    def on_link_down(self, sim, u, v, time):
        self.downs.append((u, v))


class _Idle(Protocol):
    name = "idle"


class TestDispatch:
    def test_hook_wrapped_after_attach_fires(self):
        sim = _sim(7)
        maintenance = sim.attach(ClusterMaintenanceProtocol(LowestIdClustering()))
        calls = []
        original = maintenance.on_link_up

        def wrapped(sim, u, v, time):
            calls.append((u, v))
            original(sim, u, v, time)

        maintenance.on_link_up = wrapped
        generated = []
        for _ in range(10):
            generated += sim.step().generated.tolist()
        assert generated
        assert calls == [tuple(pair) for pair in generated]

    def test_default_hooks_are_skipped(self, monkeypatch):
        def boom(self, sim, u, v, time):
            raise AssertionError("a no-op link hook was dispatched")

        monkeypatch.setattr(Protocol, "on_link_up", boom)
        monkeypatch.setattr(Protocol, "on_link_down", boom)
        sim = _sim(8)
        recorder = sim.attach(_Recorder())
        sim.attach(_Idle())
        broken = []
        for _ in range(10):
            broken += sim.step().broken.tolist()
        assert broken
        assert recorder.downs == [tuple(pair) for pair in broken]
        assert all(type(u) is int and type(v) is int for u, v in recorder.downs)

    def test_every_protocol_is_timed(self):
        sim = _sim(9)
        sim.attach(_Recorder())
        sim.attach(_Idle())
        sim.step()
        phases = {phase.phase for phase in sim.timer.report().phases}
        assert {"protocol:recorder", "protocol:idle"} <= phases


class TestClusterStateHelpers:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_per_head_expressions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        roles = rng.choice(
            [Role.UNASSIGNED, Role.MEMBER, Role.HEAD], size=n, p=[0.2, 0.5, 0.3]
        )
        state = ClusterState(roles, rng.integers(-1, n, size=n))
        heads = state.heads()
        # Most heads point at themselves; the rest leave the state torn.
        own = heads[rng.random(len(heads)) < 0.8]
        state.head_of[own] = own

        def old_members_of(head):
            return np.flatnonzero(
                (state.head_of == head) & (np.arange(n) != head)
            )

        for head in range(n):
            assert state.members_of(head).tolist() == (
                old_members_of(head).tolist()
            )
        expected = np.array(
            [1 + len(old_members_of(int(h))) for h in heads], dtype=int
        )
        sizes = state.cluster_sizes()
        assert sizes.tolist() == expected.tolist()
        assert sizes.dtype == expected.dtype


class _TiedLowestId(LowestIdClustering):
    """LID formation, but head contention decided by id buckets of 16.

    Heads of one bucket tie, so the head an orphan joins among several
    rests on the first-maximum rule alone.
    """

    def head_priority(self, adjacency):
        return -(np.arange(len(adjacency)) // 16).astype(float)

    def form(self, adjacency, rng=None):
        return sequential_formation(
            adjacency, -np.arange(len(adjacency), dtype=float)
        )


def _control_stack(seed, faults, algorithm, reference):
    tracer = CollectingTracer()
    sim = _sim(
        seed,
        faults,
        cls=RebuildingSimulation if reference else Simulation,
        tracer=tracer,
    )
    maintenance_cls, intra_cls = (
        (EnumClusterMaintenance, ClusterNodesIntraRouting)
        if reference
        else (ClusterMaintenanceProtocol, IntraClusterRoutingProtocol)
    )
    sim.attach(HelloProtocol(mode="event"))
    maintenance = maintenance_cls(algorithm)
    intra = sim.attach(intra_cls(maintenance))
    sim.attach(maintenance)
    ledger = attach_attribution(sim, maintenance)
    assert ledger is not None
    return SimpleNamespace(
        sim=sim, state=maintenance.state, intra=intra, ledger=ledger,
        tracer=tracer,
    )


class TestLockstep:
    @pytest.mark.parametrize(
        "seed,faults,algorithm",
        [
            (3, None, LowestIdClustering),
            (4, None, LowestIdClustering),
            (3, FAULTS, LowestIdClustering),
            (4, FAULTS, LowestIdClustering),
            (5, None, _TiedLowestId),
            (6, FAULTS, _TiedLowestId),
        ],
        ids=["lid-3", "lid-4", "lid-3-faults", "lid-4-faults", "tied-5",
             "tied-6-faults"],
    )
    def test_handlers_match_reference(self, seed, faults, algorithm):
        new = _control_stack(seed, faults, algorithm(), reference=False)
        ref = _control_stack(seed, faults, algorithm(), reference=True)
        rng = np.random.default_rng(100 + seed)
        n = new.sim.n_nodes
        for twin in (new, ref):
            twin.sim.trace_run_begin(4.0, 0.0)
            twin.sim.stats.start_measuring()
        for _ in range(int(round(4.0 / new.sim.dt))):
            new.sim.step()
            ref.sim.step()
            assert np.array_equal(new.state.roles, ref.state.roles)
            assert np.array_equal(new.state.head_of, ref.state.head_of)
            for source, destination in rng.integers(0, n, (8, 2)).tolist():
                assert new.intra.next_hop(
                    new.sim, source, destination
                ) == ref.intra.next_hop(ref.sim, source, destination)
        for twin in (new, ref):
            twin.sim.stats.stop_measuring()
            twin.sim.notify_run_end()
            twin.sim.trace_run_end()

        assert new.sim.stats.message_count("cluster") > 0
        for category in ("hello", "cluster", "route"):
            assert new.sim.stats.message_count(category) == (
                ref.sim.stats.message_count(category)
            )
            assert new.sim.stats.bit_count(category) == (
                ref.sim.stats.bit_count(category)
            )
        assert new.ledger.snapshot() == ref.ledger.snapshot()
        records = _normalised(new.tracer.records)
        assert records == _normalised(ref.tracer.records)
        assert any(r["event"] == "cluster_reaffiliation" for r in records)
