"""Per-layer accounting for the traced run.

Spans are recorded from the benchmark's side, around the public calls
the engine's :class:`~repro.obs.timing.PhaseTimer` does not split: the
simulation step, each protocol hook the engine times, dense adjacency
materialisation, hybrid route lookups, backbone discoveries,
intra-cluster paths, trace emission, the report and compare passes and
the sweep's task runner and telemetry merge.  Spans nest, so every
layer is reported as *self* time: its own duration minus the time its
child spans cover.  The engine's PhaseTimer report gives the phases
inside a step that no span covers (mobility and connectivity); what is
left of the step span is the engine's own dispatch.

Like :mod:`workloads`, this module imports ``repro`` only inside
functions, after the trial has timed the cold import.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "COUNTS",
    "LAYER_METRICS",
    "Recorder",
    "instrumented",
    "layer_metrics",
    "span_tracer_class",
]

#: Hooks the engine charges to ``protocol:<name>`` in its PhaseTimer.
TIMED_HOOKS = (
    "on_step_begin", "on_link_up", "on_link_down", "on_step_end",
    "on_run_end",
)

#: Protocol name -> the layer its hook self time is charged to.
PROTOCOL_LAYERS = {
    "hello": "hello.s",
    "cluster-maintenance": "clustering.s",
    "intra-cluster-routing": "intra.s",
    "hybrid-routing": "hybrid.s",
    "traffic": "traffic.s",
    "invariant-audit": "obs.health_s",
    "residual-monitor": "obs.health_s",
    "overhead-attribution": "obs.attribution_s",
    "cluster-dynamics": "obs.dynamics_s",
}

#: Span name -> the layer its self time is charged to.
SPAN_LAYERS = {
    "engine.adjacency": "engine.adjacency_s",
    "hybrid.route": "hybrid.route_s",
    "inter.discover": "inter.discover_s",
    "intra.path": "intra.path_s",
    "obs.emit": "obs.emit_s",
    "obs.report": "obs.report_s",
    "obs.compare": "obs.compare_s",
    "parallel.merge": "parallel.merge_s",
    "parallel.run_tasks": "parallel.run_tasks_s",
    "traffic.next_hop": "traffic.s",
}

#: Every layer whose self time partitions the traced wall time.
SELF_TIME_LAYERS = tuple(dict.fromkeys((
    "mobility.s", "spatial.s", "faults.s", "engine.dispatch_s",
    *PROTOCOL_LAYERS.values(),
    "protocol.other_s",
    *SPAN_LAYERS.values(),
)))

#: Deterministic work counts: they must repeat exactly for one seed.
COUNTS = (
    "spatial.link_events", "engine.handler_calls", "engine.adjacency_builds",
    "hello.msgs", "clustering.msgs", "intra.path_calls", "hybrid.route_calls",
    "hybrid.discoveries", "inter.rreq_tx", "traffic.next_hop_calls",
    "traffic.delivered", "faults.transitions", "obs.emit_calls",
    "parallel.tasks",
)

#: name -> unit of every per-layer metric the traced run reports.
LAYER_METRICS = {
    "setup.import_s": "s",
    "setup.assemble_s": "s",
    "mobility.s": "s",
    "spatial.s": "s",
    "spatial.link_events": "count",
    "spatial.rebuild_share": "1",
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p95": "ms",
    "engine.handler_calls": "count",
    "engine.dispatch_s": "s",
    "engine.adjacency_builds": "count",
    "engine.adjacency_s": "s",
    "hello.s": "s",
    "hello.us_per_event": "us/event",
    "hello.msgs": "count",
    "clustering.s": "s",
    "clustering.us_per_event": "us/event",
    "clustering.msgs": "count",
    "intra.s": "s",
    "intra.path_calls": "count",
    "intra.path_s": "s",
    "hybrid.s": "s",
    "hybrid.route_calls": "count",
    "hybrid.route_s": "s",
    "hybrid.discoveries": "count",
    "hybrid.cache_hit_share": "1",
    "inter.discover_s": "s",
    "inter.rreq_tx": "count",
    "traffic.s": "s",
    "traffic.next_hop_calls": "count",
    "traffic.discoveries_per_delivered": "1",
    "faults.s": "s",
    "faults.transitions": "count",
    "obs.emit_calls": "count",
    "obs.emit_s": "s",
    "obs.trace_mb": "MB",
    "obs.health_s": "s",
    "obs.attribution_s": "s",
    "obs.dynamics_s": "s",
    "obs.report_s": "s",
    "obs.compare_s": "s",
    "obs.share": "1",
    "parallel.tasks": "count",
    "parallel.speedup": "1",
    "parallel.worker_inflation": "1",
    "parallel.merge_s": "s",
    "bench.trace_overhead": "1",
    "bench.unattributed_share": "1",
}


class Recorder:
    """Span and count accumulator for one traced body.

    The accounting window opens at the first span created with
    ``opens_window`` (the first step, or the first task of a sweep), so
    set-up work before it is excluded exactly as the untraced wall time
    excludes it.
    """

    def __init__(self) -> None:
        self.window_open = False
        self.sims: dict[int, object] = {}
        self.protocols: list = []
        self._reset()

    def _reset(self) -> None:
        #: Child time accumulated by each open span; [0] is the root.
        self._open = [0.0]
        self.inclusive: dict[str, float] = defaultdict(float)
        self.children: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.step_seconds: list[float] = []

    def self_seconds(self, name: str) -> float:
        """Duration of ``name`` spans minus their child spans."""
        return self.inclusive[name] - self.children[name]

    def span(self, name: str, fn, on_result=None, opens_window=False):
        """``fn`` wrapped in a span named ``name``."""
        recorder = self

        def wrapper(*args, **kwargs):
            if opens_window and not recorder.window_open:
                recorder._reset()
                recorder.window_open = True
            stack = recorder._open
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                recorder.children[name] += stack.pop()
                stack[-1] += elapsed
                recorder.inclusive[name] += elapsed
                recorder.calls[name] += 1
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return wrapper


def span_tracer_class(recorder: Recorder):
    """A :class:`~repro.obs.JsonlTracer` whose ``emit`` is a span."""
    from repro.obs import JsonlTracer

    emit = recorder.span("obs.emit", JsonlTracer.emit)
    return type("SpanJsonlTracer", (JsonlTracer,), {"emit": emit})


@contextmanager
def instrumented(recorder: Recorder):
    """Install the benchmark's spans for the ``with`` body, then undo it."""
    from repro.analysis import parallel, sweep
    from repro.faults import runtime
    from repro.routing import hybrid, intra_cluster
    from repro.sim import engine, traffic

    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def on_step(events, elapsed):
        recorder.step_seconds.append(elapsed)
        recorder.counts["spatial.link_events"] += (
            events.generation_count + events.break_count
        )

    def on_discover(result, elapsed):
        recorder.counts["inter.rreq_tx"] += result.rreq_transmissions

    def on_tasks(results, elapsed):
        recorder.counts["parallel.tasks"] += len(results)

    def on_next_hop(hop, elapsed):
        recorder.counts["traffic.next_hop_calls"] += 1

    attach = engine.Simulation.attach

    def attach_with_spans(sim, protocol):
        attached = attach(sim, protocol)
        recorder.sims[id(sim)] = sim
        recorder.protocols.append(protocol)
        name = f"protocol:{protocol.name}"
        for hook in TIMED_HOOKS:
            hooked = recorder.span(name, getattr(protocol, hook))
            setattr(protocol, hook, hooked)
        return attached

    patch(engine.Simulation, "step", recorder.span(
        "engine.step", engine.Simulation.step, on_step, opens_window=True))
    patch(engine.Simulation, "attach", attach_with_spans)
    patch(engine, "edges_to_adjacency",
          recorder.span("engine.adjacency", engine.edges_to_adjacency))
    patch(runtime.FaultInjector, "advance",
          recorder.span("faults", runtime.FaultInjector.advance))
    patch(hybrid.HybridRoutingProtocol, "route",
          recorder.span("hybrid.route", hybrid.HybridRoutingProtocol.route))
    patch(hybrid, "discover_route",
          recorder.span("inter.discover", hybrid.discover_route, on_discover))
    patch(intra_cluster.IntraClusterRoutingProtocol, "path", recorder.span(
        "intra.path", intra_cluster.IntraClusterRoutingProtocol.path))
    patch(traffic.HybridRouterAdapter, "next_hop", recorder.span(
        "traffic.next_hop", traffic.HybridRouterAdapter.next_hop, on_next_hop))
    patch(sweep, "run_tasks", recorder.span(
        "parallel.run_tasks", sweep.run_tasks, on_tasks, opens_window=True))
    patch(parallel, "merge_telemetry",
          recorder.span("parallel.merge", parallel.merge_telemetry))
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * (values[0] if values else 0.0)
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: Recorder, timing, wall_s: float,
                  extra: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced body.

    ``timing`` is the PhaseTimer report of the body; ``wall_s`` its
    wall time.  Returns ``(metrics, counts, self_times)`` where
    ``self_times`` partitions ``wall_s`` by layer plus ``unattributed``.
    """
    phases = {p.phase: p for p in timing.phases}

    def phase(name: str) -> float:
        return phases[name].seconds if name in phases else 0.0

    rec = recorder
    self_times = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    self_times["mobility.s"] = phase("mobility")
    self_times["spatial.s"] = (
        phase("adjacency") + phase("link_diff")
        + phase("incremental_revalidate")
    )
    # What the step does besides its timed phases and child spans: the
    # event loops and per-hook timing of the engine itself.
    self_times["engine.dispatch_s"] = rec.self_seconds("engine.step") - (
        self_times["mobility.s"] + self_times["spatial.s"]
        + phase("control_signals")
    )
    self_times["faults.s"] = rec.self_seconds("faults")
    for name in list(rec.inclusive):
        if name.startswith("protocol:"):
            layer = PROTOCOL_LAYERS.get(name[len("protocol:"):],
                                        "protocol.other_s")
            self_times[layer] += rec.self_seconds(name)
    for span, layer in SPAN_LAYERS.items():
        self_times[layer] += rec.self_seconds(span)
    self_times["unattributed"] = wall_s - sum(self_times.values())

    protocols = rec.protocols
    sims = list(rec.sims.values())

    def total(name: str, attr: str) -> int:
        return sum(getattr(p, attr) for p in protocols if p.name == name)

    discoveries = total("hybrid-routing", "discoveries")
    cache_hits = total("hybrid-routing", "cache_hits")
    delivered = sum(p.traffic.delivered for p in protocols
                    if p.name == "traffic")
    transitions = sum(
        sim.faults.crashes_total + sim.faults.recoveries_total
        + sim.faults.outage_enters_total + sim.faults.outage_exits_total
        for sim in sims if sim.faults is not None
    )
    counts = {
        "spatial.link_events": rec.counts["spatial.link_events"],
        "engine.handler_calls": sum(
            calls for name, calls in rec.calls.items()
            if name.startswith("protocol:")
        ),
        "engine.adjacency_builds": rec.calls["engine.adjacency"],
        "hello.msgs": sum(s.stats.message_count("hello") for s in sims),
        "clustering.msgs": sum(s.stats.message_count("cluster") for s in sims),
        "intra.path_calls": rec.calls["intra.path"],
        "hybrid.route_calls": rec.calls["hybrid.route"],
        "hybrid.discoveries": discoveries,
        "inter.rreq_tx": rec.counts["inter.rreq_tx"],
        "traffic.next_hop_calls": rec.counts["traffic.next_hop_calls"],
        "traffic.delivered": delivered,
        "faults.transitions": transitions,
        "obs.emit_calls": rec.calls["obs.emit"],
        "parallel.tasks": rec.counts["parallel.tasks"],
    }
    events = counts["spatial.link_events"]
    steps = phases["mobility"].calls if "mobility" in phases else 0
    revalidated = (phases["incremental_revalidate"].calls
                   if "incremental_revalidate" in phases else 0)
    obs_layers = ("obs.emit_s", "obs.health_s", "obs.attribution_s",
                  "obs.dynamics_s", "obs.report_s", "obs.compare_s")
    metrics = {name: value for name, value in self_times.items()
               if name in LAYER_METRICS}
    metrics.update({
        name: value for name, value in counts.items() if name in LAYER_METRICS
    })
    metrics.update({
        "spatial.rebuild_share":
            (steps - revalidated) / steps if steps else 0.0,
        "engine.step_ms_p50": _percentile_ms(rec.step_seconds, 50),
        "engine.step_ms_p95": _percentile_ms(rec.step_seconds, 95),
        "hello.us_per_event":
            1e6 * self_times["hello.s"] / events if events else 0.0,
        "clustering.us_per_event":
            1e6 * self_times["clustering.s"] / events if events else 0.0,
        "hybrid.cache_hit_share": (
            cache_hits / (cache_hits + discoveries)
            if cache_hits + discoveries else 0.0
        ),
        "traffic.discoveries_per_delivered":
            discoveries / delivered if delivered else 0.0,
        "obs.trace_mb": extra.get("trace_mb", 0.0),
        "obs.share": sum(self_times[n] for n in obs_layers) / wall_s,
        "bench.unattributed_share": self_times["unattributed"] / wall_s,
    })
    # A layer the workload never runs reads 0; the sweep and the trial
    # fill in the metrics that need more than one body.
    for name in LAYER_METRICS:
        metrics.setdefault(name, 0.0)
    return metrics, counts, self_times
