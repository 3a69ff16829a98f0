"""Tests for the incremental connectivity engine (repro.spatial.incremental).

The contract is exactness: every step must return the bit-identical
sorted edge set — and, via the fast mask-diff path, bit-identical
``LinkEvents`` — that a full batch rebuild would produce.  These tests
pin that equivalence — against the batch references of
``reference_connectivity.py``, which rebuild through the dense metric
or the grid index every step — across network sizes, ranges,
boundaries, mobility models, teleports, and node failure, and
additionally pin the internal invariants the speedup
rests on (rebuild fallbacks, the bitwise-equal fast distance kernel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import NetworkParameters
from repro.mobility import (
    ConstantVelocityModel,
    EpochRandomWaypointModel,
    GaussMarkovModel,
    ManhattanModel,
    MobilityModel,
    RandomDirectionModel,
    RandomWalkModel,
    RandomWaypointModel,
    ReferencePointGroupModel,
)
from repro.obs.timing import PhaseTimer
from repro.sim import Simulation
from repro.spatial import (
    Boundary,
    IncrementalConnectivityEngine,
    SquareRegion,
    compute_edges,
    diff_edge_sets,
)

from reference_connectivity import (
    REFERENCE_SIMULATIONS,
    GridReferenceSimulation,
)


def _incremental_params(n_nodes=200) -> NetworkParameters:
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=0.08, velocity_fraction=0.05
    )


def _assert_same_events(a, b):
    np.testing.assert_array_equal(a.generated, b.generated)
    np.testing.assert_array_equal(a.broken, b.broken)


def _assert_sims_lockstep(incremental, reference, steps):
    np.testing.assert_array_equal(incremental.edges, reference.edges)
    for _ in range(steps):
        events = incremental.step()
        expected = reference.step()
        np.testing.assert_array_equal(incremental.edges, reference.edges)
        _assert_same_events(events, expected)


def _sim_pair(
    params,
    model_factory,
    seed=0,
    reference=GridReferenceSimulation,
    boundary=Boundary.TORUS,
):
    return tuple(
        cls(params, model_factory(), boundary=boundary, seed=seed)
        for cls in (Simulation, reference)
    )


class TeleportingModel(MobilityModel):
    """Drifts slowly but teleports a random batch of nodes periodically.

    The teleports exceed any displacement budget, so the engine's
    global rebuild trigger must fire — exactness may never depend on
    motion staying small.
    """

    def __init__(self, speed: float, every: int = 5, batch: int = 6):
        super().__init__()
        self.speed = speed
        self.every = every
        self.batch = batch
        self._steps = 0

    def _advance(self, dt: float) -> None:
        step = self.rng.normal(0.0, self.speed * dt, self._positions.shape)
        self._positions += step
        self._steps += 1
        if self._steps % self.every == 0:
            jump = self.rng.choice(
                len(self._positions), size=self.batch, replace=False
            )
            self._positions[jump] = self.rng.random((self.batch, 2)) * (
                self.region.side
            )
        self._positions %= self.region.side


MODEL_FACTORIES = {
    "constant": lambda v: ConstantVelocityModel(v),
    "epoch-rwp": lambda v: EpochRandomWaypointModel(v, epoch=1.0),
    "rwp": lambda v: RandomWaypointModel((0.5 * v, 1.5 * v), (0.0, 0.3)),
    "walk": lambda v: RandomWalkModel((0.5 * v, 1.5 * v), interval=0.5),
    "direction": lambda v: RandomDirectionModel((0.5 * v, 1.5 * v), pause=0.2),
    "gauss-markov": lambda v: GaussMarkovModel(v, update_interval=0.5),
    "manhattan": lambda v: ManhattanModel((0.5 * v, 1.5 * v)),
    "group": lambda v: ReferencePointGroupModel(
        n_groups=5, group_radius=0.1, member_speed=v
    ),
    "teleport": lambda v: TeleportingModel(v),
}


class TestSimulationEquivalence:
    """Simulation-level lockstep equality against a batch rebuild."""

    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    def test_every_mobility_model(self, model_name):
        params = _incremental_params()
        factory = MODEL_FACTORIES[model_name]
        incremental, reference = _sim_pair(
            params, lambda: factory(params.velocity), seed=9
        )
        _assert_sims_lockstep(incremental, reference, steps=40)

    @pytest.mark.parametrize("reference", sorted(REFERENCE_SIMULATIONS))
    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]
    )
    # 0.45 leaves the torus grid at most 2 cells per side, where the
    # wrapped stencil aliases.
    @pytest.mark.parametrize("range_fraction", [0.18, 0.25, 0.45])
    @pytest.mark.parametrize("n_nodes", [2, 3, 60, 100])
    def test_every_regime(self, n_nodes, range_fraction, boundary, reference):
        params = NetworkParameters.from_fractions(
            n_nodes=n_nodes,
            range_fraction=range_fraction,
            velocity_fraction=0.05,
        )
        incremental, batch = _sim_pair(
            params,
            lambda: EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=n_nodes,
            reference=REFERENCE_SIMULATIONS[reference],
            boundary=boundary,
        )
        _assert_sims_lockstep(incremental, batch, steps=15)
        for sim in (incremental, batch):
            sim.fail_node(n_nodes - 1)
        _assert_sims_lockstep(incremental, batch, steps=10)
        for sim in (incremental, batch):
            sim.recover_node(n_nodes - 1)
        _assert_sims_lockstep(incremental, batch, steps=15)

    def test_static_positions(self):
        params = _incremental_params()
        incremental, reference = _sim_pair(
            params, lambda: ConstantVelocityModel(0.0), seed=2
        )
        _assert_sims_lockstep(incremental, reference, steps=10)
        assert incremental._incremental.full_rebuilds == 1

    def test_fail_and_recover_mid_run(self):
        params = _incremental_params()
        incremental, reference = _sim_pair(
            params,
            lambda: EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=3,
        )
        _assert_sims_lockstep(incremental, reference, steps=5)
        victims = [int(incremental.degrees().argmax()), 0]
        for sim in (incremental, reference):
            for node in victims:
                sim.fail_node(node)
        _assert_sims_lockstep(incremental, reference, steps=8)
        for node in victims:
            assert not np.any(incremental.edges == node)
        for sim in (incremental, reference):
            sim.recover_node(victims[0])
        _assert_sims_lockstep(incremental, reference, steps=8)

    def test_long_run_with_teleports_and_failures(self):
        params = _incremental_params(150)
        incremental, reference = _sim_pair(
            params, lambda: TeleportingModel(params.velocity), seed=4
        )
        np.testing.assert_array_equal(incremental.edges, reference.edges)
        for step in range(60):
            if step in (11, 29):
                for sim in (incremental, reference):
                    sim.fail_node(step % params.n_nodes)
            if step == 41:
                for sim in (incremental, reference):
                    sim.recover_node(11)
            events = incremental.step()
            expected = reference.step()
            np.testing.assert_array_equal(
                incremental.edges, reference.edges
            )
            _assert_same_events(events, expected)
        engine = incremental._incremental
        assert engine.full_rebuilds > 1  # teleports forced validations
        assert engine.incremental_steps > 0


class TestBareEngineEquivalence:
    """Direct engine-vs-batch equality outside the simulation loop,
    covering the non-torus boundaries the Simulation never uses."""

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]
    )
    @pytest.mark.parametrize("side", [1.0, 3.7])
    def test_random_motion_stream(self, boundary, side):
        region = SquareRegion(side, boundary)
        tx_range = 0.08 * side
        rng = np.random.default_rng(7)
        positions = region.uniform_positions(150, 7)
        engine = IncrementalConnectivityEngine(region, tx_range)
        prev_edges = None
        for step in range(50):
            result = engine.step(positions)
            expected = compute_edges(region, positions, tx_range)
            np.testing.assert_array_equal(result.edges, expected)
            if result.events is not None:
                assert prev_edges is not None
                _assert_same_events(
                    result.events, diff_edge_sets(prev_edges, result.edges)
                )
            prev_edges = result.edges
            positions = positions + rng.normal(
                0.0, 0.002 * side, positions.shape
            )
            if step == 25:  # one hard teleport mid-stream
                positions = positions.copy()
                positions[rng.integers(150)] = rng.random(2) * side
            if boundary is Boundary.TORUS:
                positions = positions % side
            else:
                positions = np.clip(positions, 0.0, side)
        assert engine.incremental_steps > 0

    def test_invalidate_forces_rebuild(self, unit_torus):
        engine = IncrementalConnectivityEngine(unit_torus, 0.1)
        positions = unit_torus.uniform_positions(120, 1)
        assert engine.step(positions).rebuilt
        assert not engine.step(positions).rebuilt
        engine.invalidate()
        result = engine.step(positions)
        assert result.rebuilt
        assert result.events is None
        assert engine.full_rebuilds == 2

    def test_rebuild_cadence_amortizes(self, unit_torus):
        # recommended_step-scale motion must run many incremental steps
        # per validation, or the design has no speedup to offer.
        rng = np.random.default_rng(2)
        positions = unit_torus.uniform_positions(200, 2)
        engine = IncrementalConnectivityEngine(unit_torus, 0.1)
        for _ in range(40):
            engine.step(positions)
            positions = (
                positions + rng.normal(0.0, 0.002, positions.shape)
            ) % 1.0
        assert engine.incremental_steps >= 4 * engine.full_rebuilds

    def test_rejects_bad_parameters(self, unit_torus):
        with pytest.raises(ValueError):
            IncrementalConnectivityEngine(unit_torus, 0.0)


class TestFastDistanceKernel:
    """`_pair_distances` must be bitwise-equal to the region metric."""

    @pytest.mark.parametrize("side", [1.0, 0.3333333333333333, 1000.0])
    def test_torus_bitwise(self, side):
        region = SquareRegion(side, Boundary.TORUS)
        engine = IncrementalConnectivityEngine(region, 0.1 * side)
        rng = np.random.default_rng(5)
        pos = rng.random((400, 2)) * side
        # Adversarial band: pairs separated by almost exactly side/2,
        # where the wrap branch choice is the closest call.
        pos[200:] = (
            pos[:200] + side / 2 + rng.normal(0.0, 1e-9 * side, (200, 2))
        ) % side
        i = rng.integers(0, 400, 5000)
        j = rng.integers(0, 400, 5000)
        fast = engine._pair_distances(pos, i, j)
        reference = region.distance(pos[i], pos[j])
        np.testing.assert_array_equal(fast, reference)

    def test_open_bitwise(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        engine = IncrementalConnectivityEngine(region, 0.1)
        rng = np.random.default_rng(6)
        pos = rng.random((300, 2))
        i = rng.integers(0, 300, 3000)
        j = rng.integers(0, 300, 3000)
        np.testing.assert_array_equal(
            engine._pair_distances(pos, i, j),
            region.distance(pos[i], pos[j]),
        )


class TestPhaseTiming:
    def test_revalidate_phase_recorded(self):
        params = _incremental_params()
        timer = PhaseTimer()
        sim = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=8,
            timer=timer,
        )
        for _ in range(10):
            sim.step()
        phases = {p.phase: p for p in timer.report().phases}
        assert "incremental_revalidate" in phases
        assert phases["incremental_revalidate"].seconds >= 0.0
        assert phases["incremental_revalidate"].calls > 0
        assert phases["adjacency"].seconds >= 0.0
        # The sub-phase is disjoint from adjacency, so the report total
        # still accounts each second exactly once.
        report = timer.report()
        assert report.total_seconds == pytest.approx(
            sum(p.seconds for p in report.phases)
        )


class TestParallelDeterminism:
    def test_sweep_bitwise_identical_across_jobs(self):
        from repro.analysis.sweep import measure_point

        params = _incremental_params(120)
        kwargs = dict(seeds=3, duration=2.0, warmup=0.5)
        serial = measure_point(params, params.tx_range, **kwargs, jobs=1)
        parallel = measure_point(params, params.tx_range, **kwargs, jobs=2)
        assert serial == parallel
