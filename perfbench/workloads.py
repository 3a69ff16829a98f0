"""The benchmark's workloads: inputs generated from the workload seed.

Every workload runs the clustered-MANET stack the paper prices: torus
boundary, epoch random-waypoint mobility, lowest-ID clustering and a
transmission range of ``0.15 * sqrt(120 / N)`` of the region side, so
the mean node degree stays the same at every ``N``.  The seed picks the
simulation seed and the CBR flow endpoints; the program receives only
the generated inputs.

This module imports only the standard library at module level, so a
trial can time the cold ``import repro.cli`` on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "WORKLOADS",
    "BodyResult",
    "ScenarioWorkload",
    "SweepWorkload",
    "range_fraction",
]

VELOCITY_FRACTION = 0.05
#: The paper's Fig-2 velocity axis, as fractions of the side.
SWEEP_V_MIN = 0.01
SWEEP_V_MAX = 0.15
#: Width of the sweep's seed jitter, as a share of the point spacing.
SWEEP_JITTER = 0.1

#: The fault block of ``examples/scenarios/chaos.json``, copied so that
#: editing the example does not silently change the benchmark.
CHAOS_FAULTS = {
    "crash_rate": 0.004,
    "crash_recover_after": 3.0,
    "loss_rate": 0.08,
    "hello_miss_limit": 3,
    "route_retries": 2,
}


def range_fraction(n_nodes: int) -> float:
    """Transmission range as a fraction of the side, constant mean degree."""
    return 0.15 * math.sqrt(120.0 / n_nodes)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _identity(name, fn):
    return fn


@dataclass
class BodyResult:
    """What one execution of a workload body produced.

    ``digest`` covers the program's outputs (message totals and traffic
    counts, or the whole sweep result); two bodies of one seed must
    agree on it.  ``problems`` lists failed output checks.
    """

    wall_s: float
    assemble_s: float
    digest: str
    overhead_bps: float
    delivery_ratio: float
    problems: list = field(default_factory=list)
    #: Mean calibration kernel time while the body ran (untraced bodies).
    calibration_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "assemble_s": self.assemble_s,
            "digest": self.digest,
            "overhead_bps": self.overhead_bps,
            "delivery_ratio": self.delivery_ratio,
            "problems": list(self.problems),
            "calibration_s": self.calibration_s,
        }


class SetupDone(Exception):
    """Stops a set-up-only body when the first step is reached."""


class FirstCall:
    """Timestamp the first call of ``owner.attr``, then unpatch it.

    Marks the end of set-up (the first ``Simulation.step``, or the first
    ``run_tasks`` of a sweep) at the cost of one extra call.  With
    ``stop`` set it raises :class:`SetupDone` there instead.
    """

    def __init__(self, owner, attr: str, stop: bool = False) -> None:
        self.owner = owner
        self.attr = attr
        self.original = owner.__dict__[attr]
        self.time: float | None = None
        self.args: tuple = ()

        def first(*args, **kwargs):
            self.time = perf_counter()
            self.args = args
            self.restore()
            if stop:
                raise SetupDone
            return self.original(*args, **kwargs)

        setattr(owner, attr, first)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


@dataclass(frozen=True)
class ScenarioWorkload:
    """Declarative scenarios through :func:`repro.scenario.run_scenario`.

    A body runs ``scenarios`` independent scenarios drawn from the seed,
    one after the other, so that one unlucky topology does not decide a
    run.  ``observed`` turns on the program's own observability: a JSONL
    trace, a metrics registry and strict run-health audits, followed by
    ``build_report`` and a ``compare_traces`` self-diff of the trace.
    Each flow's destination is the node whose starting position lies
    nearest ``flow_separation`` of the side away from its source, so the
    route lengths, and with them the discovery cost, are alike for every
    seed.
    """

    name: str
    n_nodes: int
    duration: float
    warmup: float
    flow_intervals: tuple = ()
    hello: dict = field(default_factory=lambda: {"mode": "event"})
    faults: dict | None = None
    observed: bool = False
    flow_separation: float | None = None
    scenarios: int = 1

    def __post_init__(self) -> None:
        if self.flow_intervals and self.flow_separation is None:
            raise ValueError(f"{self.name}: flows need a flow_separation")

    def workers(self, jobs=None) -> int:
        """Processes the body's simulations run in."""
        return 1

    def _endpoints(self, seed: int) -> list[int]:
        """Source, destination, source, ... for every flow."""
        if not self.flow_intervals:
            return []
        rng = random.Random(seed)
        wanted = 2 * len(self.flow_intervals)
        from repro.core.params import NetworkParameters
        from repro.mobility import EpochRandomWaypointModel
        from repro.spatial import Boundary, SquareRegion

        params = NetworkParameters.from_fractions(
            n_nodes=self.n_nodes,
            range_fraction=range_fraction(self.n_nodes),
            velocity_fraction=VELOCITY_FRACTION,
        )
        region = SquareRegion(params.side, Boundary.TORUS)
        mobility = EpochRandomWaypointModel(params.velocity, epoch=1.0)
        mobility.reset(self.n_nodes, region, seed)
        positions = mobility.positions
        ends: list[int] = []
        while len(ends) < wanted:
            source = rng.choice(
                [n for n in range(self.n_nodes) if n not in ends]
            )
            gap = abs(region.distance(positions, positions[source])
                      - self.flow_separation * params.side)
            destination = min(
                (n for n in range(self.n_nodes)
                 if n != source and n not in ends),
                key=lambda n: gap[n],
            )
            ends += [source, destination]
        return ends

    def inputs(self, seed: int) -> list[dict]:
        """The body's scenario dicts for ``seed``, flow endpoints included."""
        scenarios = []
        for index in range(self.scenarios):
            sub_seed = seed * self.scenarios + index
            ends = self._endpoints(sub_seed)
            scenarios.append({
                "name": self.name,
                "n_nodes": self.n_nodes,
                "range_fraction": range_fraction(self.n_nodes),
                "velocity_fraction": VELOCITY_FRACTION,
                "mobility": {"model": "epoch-rwp", "epoch": 1.0},
                "clustering": {"algorithm": "lid"},
                "routing": "hybrid",
                "hello": dict(self.hello),
                "boundary": "torus",
                "duration": self.duration,
                "warmup": self.warmup,
                "seed": sub_seed,
                "flows": [
                    {"source": ends[2 * i], "destination": ends[2 * i + 1],
                     "interval": interval}
                    for i, interval in enumerate(self.flow_intervals)
                ],
                "faults": self.faults,
            })
        return scenarios

    def run(self, seed: int, workdir, wrap=_identity, tracer_cls=None,
            stop_at_setup: bool = False) -> BodyResult:
        """Assemble and run the body's scenarios once.

        With ``stop_at_setup`` it returns at the first step, with only
        ``assemble_s`` set.  ``wrap(name, fn)`` lets the traced run put
        spans around the public calls the body makes; ``tracer_cls``
        replaces :class:`~repro.obs.JsonlTracer` for the observed workload.
        """
        scenarios = self.inputs(seed)
        started = perf_counter()
        from repro.scenario import ScenarioConfig
        from repro.sim.engine import Simulation

        first = None
        outputs = []
        extra = {"trace_mb": 0.0}
        for inputs in scenarios:
            config = ScenarioConfig.from_dict(inputs)
            probe = FirstCall(Simulation, "step", stop=stop_at_setup)
            try:
                report, traced, problems = self._run_one(
                    config, workdir, wrap, tracer_cls, extra
                )
            except SetupDone:
                return BodyResult(0.0, probe.time - started, "", 0.0, 0.0)
            finally:
                probe.restore()
            if problems:
                return BodyResult(0.0, 0.0, "", 0.0, 0.0, problems)
            first = probe.time if first is None else first
            outputs.append((report, probe.args[0], traced))
        ended = perf_counter()

        digests, counts, problems = [], [0, 0, 0, 0], []
        for report, sim, traced in outputs:
            totals = {
                category: [t.messages, t.bits]
                for category, t in sorted(sim.stats.totals.items())
            }
            traffic = next(
                (p.traffic for p in sim.protocols if p.name == "traffic"),
                None,
            )
            sim_counts = [0, 0, 0, 0] if traffic is None else [
                traffic.generated, traffic.delivered, traffic.dropped,
                traffic.in_flight,
            ]
            counts = [a + b for a, b in zip(counts, sim_counts)]
            digests.append({"totals": totals, "traffic": sim_counts})
            if traced is not None:
                traced = {c: n for c, n in traced.items() if n}
                ran = {c: t[0] for c, t in totals.items() if t[0]}
                if traced != ran:
                    problems.append(
                        f"summarize_trace totals {traced} != run totals {ran}"
                    )
        return BodyResult(
            wall_s=ended - first,
            assemble_s=first - started,
            digest=_digest(digests),
            overhead_bps=sum(r.total_overhead for r, _, _ in outputs)
            / len(outputs),
            # Vacuously 1 without flows: nothing was sent, nothing lost.
            delivery_ratio=counts[1] / counts[0] if counts[0] else 1.0,
            problems=problems,
            extra=extra,
        )

    def _run_one(self, config, workdir, wrap, tracer_cls, extra):
        """One scenario: its report, the trace's per-category message
        totals (observed workload only) and the problems it showed."""
        from repro.obs import JsonlTracer, MetricsRegistry, RunHealthConfig
        from repro.obs import build_report, observe
        from repro.obs.audit import AuditError
        from repro.obs.compare import compare_traces
        from repro.scenario import run_scenario

        if not self.observed:
            return run_scenario(config), None, []
        trace = workdir / f"{config.name}-{config.seed}.jsonl"
        tracer = (tracer_cls or JsonlTracer)(trace)
        try:
            with tracer, observe(
                tracer=tracer,
                registry=MetricsRegistry(),
                health=RunHealthConfig(strict=True),
            ):
                report = run_scenario(config)
            health = wrap("obs.report", build_report)([trace])
            comparison = wrap("obs.compare", compare_traces)(trace, trace)
            extra["trace_mb"] += trace.stat().st_size / 1e6
        except AuditError as error:
            return None, None, [f"strict audit raised: {error}"]
        finally:
            trace.unlink(missing_ok=True)
        problems = []
        if not comparison.within_threshold:
            problems.append("compare_traces self-diff exceeds threshold")
        return report, health.traces[0].summary.messages, problems


@dataclass(frozen=True)
class SweepWorkload:
    """The paper's Fig-2 velocity sweep through ``run_sweep``.

    ``run_sweep`` seeds its own runs ``0 .. seeds-1``, so the workload
    seed moves each interior velocity point by up to ``SWEEP_JITTER / 2``
    of the spacing between points; the end points stay on the paper's
    axis.
    """

    name: str
    n_nodes: int
    duration: float
    warmup: float
    points: int
    seeds: int
    jobs: int

    def workers(self, jobs=None) -> int:
        """Processes the body's simulations run in (``run_sweep`` caps
        the pool at the tasks of one point)."""
        return max(1, min(self.jobs if jobs is None else jobs, self.seeds))

    def inputs(self, seed: int) -> list[float]:
        """Velocity fractions of the side, one per point, from ``seed``."""
        rng = random.Random(seed)
        step = (SWEEP_V_MAX - SWEEP_V_MIN) / (self.points - 1)
        return [
            SWEEP_V_MIN + i * step
            + (rng.uniform(-0.5, 0.5) * SWEEP_JITTER * step
               if 0 < i < self.points - 1 else 0.0)
            for i in range(self.points)
        ]

    def run(self, seed: int, workdir, wrap=_identity, tracer_cls=None,
            stop_at_setup: bool = False, jobs: int | None = None
            ) -> BodyResult:
        started = perf_counter()
        from repro.analysis import sweep
        from repro.core.params import NetworkParameters

        base = NetworkParameters.from_fractions(
            n_nodes=self.n_nodes,
            range_fraction=range_fraction(self.n_nodes),
            velocity_fraction=VELOCITY_FRACTION,
        )
        values = [v * base.side for v in self.inputs(seed)]
        probe = FirstCall(sweep, "run_tasks", stop=stop_at_setup)
        try:
            result = sweep.run_sweep(
                "velocity", base, values,
                seeds=self.seeds, duration=self.duration, warmup=self.warmup,
                jobs=self.jobs if jobs is None else jobs,
            )
        except SetupDone:
            return BodyResult(0.0, probe.time - started, "", 0.0, 0.0)
        finally:
            probe.restore()
        ended = perf_counter()
        problems = []
        for key in ("f_hello", "f_cluster", "f_route"):
            measured = _slope(values, result.measured_series(key))
            predicted = _slope(values, result.predicted_series(key))
            if (measured > 0) != (predicted > 0):
                problems.append(
                    f"{key}: measured slope {measured:.4g} and predicted "
                    f"slope {predicted:.4g} trend differently"
                )
        sizes = base.messages
        bits = {"f_hello": sizes.p_hello, "f_cluster": sizes.p_cluster,
                "f_route": sizes.p_route}
        overhead = sum(
            sum(point.measured[key] * size for key, size in bits.items())
            for point in result.points
        ) / len(result.points)
        return BodyResult(
            wall_s=ended - probe.time,
            assemble_s=probe.time - started,
            digest=_digest(result.to_dict()),
            overhead_bps=overhead,
            delivery_ratio=1.0,
            problems=problems,
        )


def _slope(xs, ys) -> float:
    """Least-squares slope of ``ys`` over ``xs``."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


WORKLOADS = {
    w.name: w
    for w in (
        ScenarioWorkload("control-n2000", 2000, duration=2.0, warmup=0.5),
        ScenarioWorkload(
            "data-n500", 500, duration=2.0, warmup=0.5,
            flow_intervals=(0.5,) * 8, flow_separation=0.3, scenarios=8,
        ),
        SweepWorkload(
            "sweep-v-n400", 400, duration=2.0, warmup=0.5, points=4,
            seeds=2, jobs=2,
        ),
        ScenarioWorkload(
            "chaos-traced-n1000", 1000, duration=1.5, warmup=0.5,
            flow_intervals=(0.5, 1.0),
            hello={"mode": "periodic", "interval": 0.5},
            faults=CHAOS_FAULTS, observed=True, flow_separation=0.15,
        ),
    )
}
