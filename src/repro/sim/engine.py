"""Time-stepped MANET simulation kernel.

The paper validated its analysis with GloMoSim; this kernel is the
Python substitute (see DESIGN.md, substitutions).  It advances a
mobility model in fixed steps, maintains the exact unit-disk
connectivity after every step as a sorted **edge set** (an ``(E, 2)``
pair array — ``O(E)`` state instead of an ``O(N^2)`` matrix) through
one :class:`~repro.spatial.IncrementalConnectivityEngine`, turns each
step's change into link generation/break events, and delivers those
events — in deterministic order — to attached protocols (HELLO
beaconing, clustering maintenance, routing).
A dense boolean :attr:`Simulation.adjacency` view is still available
for consumers that index into a matrix; it is materialized lazily from
the edge set and cached until the next step.  Graph walks use the
ascending per-node :attr:`Simulation.neighbor_lists`, built once and
then kept current from each step's link events.  Message accounting
flows into a shared :class:`~repro.sim.stats.MessageStats`.

The kernel is fully instrumented (see :mod:`repro.obs`): every step
charges its phases (mobility advance, adjacency recompute, link diff
and its application to the neighbor lists, each protocol's hooks) to a
:class:`~repro.obs.timing.PhaseTimer`, and a tracer — the no-op null
tracer unless one is configured explicitly or through the ambient
observability context — receives structured ``step`` / ``link_up`` /
``link_down`` / ``msg_tx`` events.

The step size must be small enough that a link is unlikely to appear
*and* disappear within one step; :func:`recommended_step` provides the
standard choice (a small fraction of ``r / v``).
"""

from __future__ import annotations

import itertools
import logging
from bisect import insort
from time import perf_counter

import numpy as np

from ..core.params import NetworkParameters
from ..mobility.base import MobilityModel
from ..obs import context as obs_context
from ..obs.spans import SpanTracker
from ..obs.timing import PhaseTimer, TimingReport
from ..spatial import (
    Boundary,
    IncrementalConnectivityEngine,
    IncrementalStepResult,
    LinkEvents,
    SquareRegion,
    degree_counts_from_edges,
    diff_edge_sets,
    edges_to_adjacency,
    edges_to_neighbor_lists,
)
from .stats import MessageStats

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "Protocol",
    "Simulation",
    "recommended_step",
]

logger = logging.getLogger(__name__)

#: Version of the engine's *result semantics*.  Bump whenever a change
#: to the kernel (or to any protocol it drives) can alter the numbers a
#: simulation run produces — stepping rules, event ordering, RNG use,
#: message accounting.  The value is folded into every task fingerprint
#: (:mod:`repro.store.fingerprint`), so bumping it invalidates all
#: previously stored results at once; purely structural refactors that
#: provably preserve outputs must NOT bump it, or the cache loses its
#: point.
ENGINE_SCHEMA_VERSION = 1


def recommended_step(tx_range: float, velocity: float, fraction: float = 0.05) -> float:
    """Step size so nodes move at most ``fraction * r`` per step.

    Relative node speed is at most ``2 v``, so ``dt = fraction * r / (2 v)``
    keeps per-step link-state churn well below one event per pair.
    Returns a default of 0.1 for static networks.
    """
    if tx_range <= 0.0:
        raise ValueError(f"tx_range must be positive, got {tx_range}")
    if velocity <= 0.0:
        return 0.1
    return fraction * tx_range / (2.0 * velocity)


class Protocol:
    """Base class for everything the simulation drives.

    Subclasses override the hooks they need.  Hook order per step:
    ``on_step_begin`` → link events (``on_link_up`` / ``on_link_down``,
    interleaved in deterministic pair order) → ``on_step_end``.

    Every subclass must declare a distinct ``name``: it is the label
    under which the protocol's hook time is charged
    (``protocol:<name>`` in the timing report) and the key
    :meth:`Simulation.attach` uses to reject double-attachment.
    """

    name: str = "protocol"

    def on_attach(self, sim: "Simulation") -> None:
        """Called once when attached, after the simulation is initialized."""

    def on_step_begin(self, sim: "Simulation", time: float) -> None:
        """Called after mobility advanced, before link events are delivered."""

    def on_link_up(self, sim: "Simulation", u: int, v: int, time: float) -> None:
        """A link appeared between nodes ``u`` and ``v`` (``u < v``)."""

    def on_link_down(self, sim: "Simulation", u: int, v: int, time: float) -> None:
        """A link disappeared between nodes ``u`` and ``v`` (``u < v``)."""

    def on_step_end(self, sim: "Simulation", time: float) -> None:
        """Called after all link events of the step were delivered."""

    def on_node_fail(self, sim: "Simulation", node: int, time: float) -> None:
        """``node`` crashed: wipe any state the protocol keeps *at* it.

        Fired by the engine's fault phase (see :mod:`repro.faults`)
        before the step's link events are delivered.  The crash also
        breaks all the node's links, so handlers at *other* nodes react
        through their ordinary ``on_link_down`` path; this hook only
        models the loss of the crashed node's own memory.
        """

    def on_node_recover(self, sim: "Simulation", node: int, time: float) -> None:
        """``node``'s radio came back (with the state wiped at crash)."""

    def on_run_end(self, sim: "Simulation", time: float) -> None:
        """Called once when a measurement run finishes.

        Fired by :meth:`Simulation.run` after the measurement window
        closes (and by drivers that step manually, via
        :meth:`Simulation.notify_run_end`) — the hook run-health
        protocols use to flush partial windows and emit final verdicts.
        """


def _overridden_hooks(protocols, hook_name: str) -> list:
    """``(index, bound hook)`` of every protocol whose hook is not a no-op.

    A hook left at :class:`Protocol`'s empty default is skipped.  Hooks
    are resolved on every step, not at attach, so a hook replaced on
    the instance later (a wrapper, say) is the one that fires.
    """
    default = getattr(Protocol, hook_name)
    hooks = []
    for index, protocol in enumerate(protocols):
        hook = getattr(protocol, hook_name)
        if getattr(hook, "__func__", None) is not default:
            hooks.append((index, hook))
    return hooks


def _apply_link_events(
    lists: list[list[int]],
    broken: list[list[int]],
    generated: list[list[int]],
) -> list[list[int]]:
    """Neighbor lists after ``broken``/``generated``, copy-on-write.

    Returns a new outer list in which every row an event touches is a
    fresh copy, kept ascending; ``lists`` and its rows are unchanged.
    """
    new = list(lists)
    for pairs in (broken, generated):
        for u, v in pairs:
            if new[u] is lists[u]:
                new[u] = lists[u][:]
            if new[v] is lists[v]:
                new[v] = lists[v][:]
    for u, v in broken:
        new[u].remove(v)
        new[v].remove(u)
    for u, v in generated:
        insort(new[u], v)
        insort(new[v], u)
    return new


class Simulation:
    """Synchronous time-stepped simulation of ``N`` mobile nodes.

    Parameters
    ----------
    params:
        Network parameters (node count, density/side, range, speed,
        message sizes).  The region side is derived from them.
    mobility:
        A mobility model instance; it is reset by the constructor.
    boundary:
        Region boundary rule; the paper's simulations wrap (torus).
    dt:
        Step size; defaults to :func:`recommended_step`.  Any step is
        exact; one far above it makes every step a full connectivity
        validation (see :mod:`repro.spatial.incremental`).
    seed:
        Seed for mobility and any protocol randomness.
    tracer:
        Structured event sink; defaults to the ambient observability
        context's tracer (the no-op null tracer unless configured).
    timer:
        Phase timer; defaults to the ambient context's shared timer,
        or a private one when none is configured.
    """

    _instance_ids = itertools.count()

    def __init__(
        self,
        params: NetworkParameters,
        mobility: MobilityModel,
        boundary: Boundary = Boundary.TORUS,
        dt: float | None = None,
        seed: int | None = 0,
        tracer=None,
        timer: PhaseTimer | None = None,
    ) -> None:
        self.params = params
        self.region = SquareRegion(params.side, boundary)
        self.mobility = mobility
        self.dt = dt if dt is not None else recommended_step(
            params.tx_range, params.velocity
        )
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self.rng = np.random.default_rng(seed)
        self.seed = seed

        context = obs_context.current()
        #: Sequential id distinguishing this run's events in shared
        #: traces and registries.
        self.sim_id = next(Simulation._instance_ids)
        self.tracer = tracer if tracer is not None else context.tracer
        self.timer = timer if timer is not None else (
            context.timer if context.timer is not None else PhaseTimer()
        )
        if context.registry is not None:
            self.stats = MessageStats(
                params.n_nodes,
                registry=context.registry,
                labels={"sim": str(self.sim_id)},
            )
        else:
            self.stats = MessageStats(params.n_nodes)
        if self.tracer.enabled:
            self.stats.on_record = self._trace_msg_tx
        #: Overhead-attribution ledger, set by
        #: :func:`repro.obs.attribution.attach_attribution`; ``None``
        #: (the default) makes every ``attributed(...)`` scope a no-op.
        self.attribution = None
        #: Fault injector, set by :func:`repro.faults.attach_faults`;
        #: ``None`` (the default) skips the fault phase entirely, so an
        #: un-faulted run is byte-identical to one on a kernel without
        #: fault support.
        self.faults = None
        #: Hierarchical causal span stack (run → phase → step →
        #: handler) writing to the same tracer; see repro.obs.spans.
        self.spans = SpanTracker(self.tracer, self.sim_id)
        self._run_span_open = False
        self._phase_span_open = False
        self._phase_name: str | None = None

        self.time = 0.0
        self._protocols: list[Protocol] = []
        #: Signal taps (see :meth:`add_signal_tap`): pure observers of
        #: each step's link events, fed before protocol hooks run.
        self._signal_taps: list = []

        self.mobility.reset(params.n_nodes, self.region, seed)
        self._incremental = IncrementalConnectivityEngine(
            self.region, params.tx_range
        )
        #: Radio state per node; failed nodes keep moving but hold no links.
        self.active = np.ones(params.n_nodes, dtype=bool)
        #: Whether every radio was active at the end of the previous
        #: step; the incremental fast-path events are only valid when no
        #: external masking happened on either side of the diff.
        self._prev_all_active = True
        self.edges = self._connect(self.mobility.positions).edges
        # The first step's events diff this edge set (see _advance_edges).
        self._edges_from_step = True
        logger.debug(
            "sim %d: N=%d side=%.4g r=%.4g v=%.4g dt=%.4g seed=%s",
            self.sim_id,
            params.n_nodes,
            params.side,
            params.tx_range,
            params.velocity,
            self.dt,
            seed,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _trace_msg_tx(self, category: str, messages: int, bits: float) -> None:
        fields = {
            "sim": self.sim_id,
            "category": category,
            "messages": int(messages),
            "bits": float(bits),
        }
        # Attribute the transmission to the innermost materialized span
        # (the handler that sent it, or the phase/run otherwise).
        span = self.spans.current
        if span is not None:
            fields["span"] = span
        self.tracer.emit("msg_tx", self.time, **fields)

    def _sync_phase_span(self) -> None:
        """Keep the open ``phase`` span aligned with ``stats.measuring``.

        Called at the top of each step while a run span is open: the
        first step opens the ``warmup`` (or ``measure``) phase span,
        and the warmup→measure transition closes one and opens the
        other, so every step/handler span nests under the phase that
        contains it.
        """
        phase = "measure" if self.stats.measuring else "warmup"
        if self._phase_span_open and phase == self._phase_name:
            return
        if self._phase_span_open:
            self.spans.end(self.time)
        self.spans.start(phase, "phase", self.time)
        self._phase_span_open = True
        self._phase_name = phase

    def trace_run_begin(self, duration: float, warmup: float) -> None:
        """Emit the ``run_begin`` boundary event (no-op when untraced).

        :meth:`run` calls this automatically; drivers that step the
        simulation manually (e.g. sweeps sampling mid-run state) should
        call it when opening their measurement window so traces stay
        reconcilable.
        """
        if self.tracer.enabled:
            self.tracer.emit(
                "run_begin",
                self.time,
                sim=self.sim_id,
                n_nodes=self.params.n_nodes,
                dt=self.dt,
                duration=float(duration),
                warmup=float(warmup),
                protocols=[p.name for p in self._protocols],
            )
            # Plain "run": the sim id already labels every record's
            # ``sim`` field, and embedding it in the name would go
            # stale when the parallel merge remaps worker sim ids.
            self.spans.start("run", "run", self.time)
            self._run_span_open = True

    def notify_run_end(self) -> None:
        """Deliver ``on_run_end`` to every protocol, charged to its phase.

        :meth:`run` calls this automatically after the measurement
        window closes; drivers that step the simulation manually should
        call it before :meth:`trace_run_end` so run-health protocols
        can flush their final telemetry into the trace.
        """
        for protocol in self._protocols:
            h0 = perf_counter()
            protocol.on_run_end(self, self.time)
            self.timer.add(f"protocol:{protocol.name}", perf_counter() - h0)

    def trace_run_end(self) -> None:
        """Emit ``run_end`` with final totals (no-op when untraced)."""
        if self.tracer.enabled:
            # Close the phase and run spans (and, defensively, any
            # handler span a protocol left open) before the boundary
            # event so every span_end falls inside the run's records.
            self.spans.unwind(self.time)
            self._run_span_open = False
            self._phase_span_open = False
            self._phase_name = None
            self.tracer.emit(
                "run_end",
                self.time,
                sim=self.sim_id,
                measured_time=self.stats.measured_time,
                totals={
                    category: {
                        "messages": totals.messages,
                        "bits": totals.bits,
                    }
                    for category, totals in self.stats.totals.items()
                },
            )

    def timing_report(self) -> TimingReport:
        """Per-phase wall-clock breakdown accumulated so far."""
        return self.timer.report()

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the simulation."""
        return self.params.n_nodes

    @property
    def positions(self) -> np.ndarray:
        """Current node positions."""
        return self.mobility.positions

    @property
    def edges(self) -> np.ndarray:
        """Primary connectivity state: sorted ``(E, 2)`` edge array, i < j.

        Assigning a new edge set drops the derived views
        (:attr:`adjacency`, :attr:`neighbor_lists`), so they are rebuilt
        from it on next access.
        """
        return self._edges

    @edges.setter
    def edges(self, edges: np.ndarray) -> None:
        self._edges = edges
        self._adjacency_cache: np.ndarray | None = None
        self._neighbor_lists_cache: list[list[int]] | None = None
        self._edges_from_step = False

    @property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency view of the live edge set.

        Materialized lazily and cached until the next step, so runs
        whose protocols never index into a matrix stay ``O(E)``.
        """
        if self._adjacency_cache is None:
            self._adjacency_cache = edges_to_adjacency(
                self.edges, self.params.n_nodes
            )
        return self._adjacency_cache

    @property
    def neighbor_lists(self) -> list[list[int]]:
        """Ascending Python neighbor lists of the live edge set.

        ``neighbor_lists[u]`` lists ``u``'s neighbors in the same order
        as ``np.flatnonzero(adjacency[u])``, so graph walks over it
        visit nodes exactly as walks over the dense view do, without
        its ``O(N^2)`` build or per-row scans.

        Built from the edge set on first access; after that each step
        updates it from its link events in ``O(events)`` instead of
        rebuilding it, and the result equals a rebuild.  The update is
        copy-on-write: a step installs a new outer list holding fresh
        copies of the rows it touched, so a list obtained earlier keeps
        describing the topology it was taken at.  Assigning
        :attr:`edges` drops it, and the next access rebuilds.  Treat
        the lists as read-only.
        """
        if self._neighbor_lists_cache is None:
            self._neighbor_lists_cache = edges_to_neighbor_lists(
                self.edges, self.params.n_nodes
            )
        return self._neighbor_lists_cache

    @property
    def edge_count(self) -> int:
        """Number of live links."""
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Per-node degree vector from the live edge set."""
        return degree_counts_from_edges(self.edges, self.params.n_nodes)

    def neighbors_of(self, node: int) -> np.ndarray:
        """Current neighbor indices of ``node``, ascending."""
        return np.array(self.neighbor_lists[node], dtype=np.intp)

    def degree_of(self, node: int) -> int:
        """Current degree of ``node``."""
        return int(self.adjacency[node].sum())

    def has_link(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are currently connected."""
        return bool(self.adjacency[u, v])

    # ------------------------------------------------------------------
    # Protocol management
    # ------------------------------------------------------------------
    def attach(self, protocol: Protocol) -> Protocol:
        """Attach a protocol; returns it for chaining.

        Protocol names must be unique per simulation — they key the
        timing/trace labels, so a collision would silently merge two
        protocols' telemetry.
        """
        for existing in self._protocols:
            if existing.name == protocol.name:
                raise ValueError(
                    f"a protocol named {protocol.name!r} is already "
                    "attached; give each attached protocol a distinct "
                    "`name`"
                )
        self._protocols.append(protocol)
        protocol.on_attach(self)
        return protocol

    @property
    def protocols(self) -> tuple[Protocol, ...]:
        """Attached protocols in delivery order."""
        return tuple(self._protocols)

    def add_signal_tap(self, tap) -> None:
        """Register ``tap(sim, events)`` to observe each step's link events.

        Taps run after the step's edge set and events are final but
        *before* any protocol hook, so ``on_step_end`` decisions (e.g.
        an adaptive beacon policy) see signals that already include the
        current step.  Taps must be pure observers — no RNG draws, no
        message recording, no trace emission — so that registering one
        cannot change a run's results (their wall-clock cost is charged
        to the ``control_signals`` timing phase).
        """
        self._signal_taps.append(tap)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Crash ``node``'s radio: all its links break at the next step.

        The node keeps moving (a dead radio does not stop the vehicle);
        attached protocols observe ordinary link-down events, so no
        special crash handling is required of them.
        """
        self.active[node] = False
        self._incremental.invalidate()

    def recover_node(self, node: int) -> None:
        """Bring ``node``'s radio back; links re-form at the next step."""
        self.active[node] = True
        self._incremental.invalidate()

    @property
    def failed_nodes(self) -> np.ndarray:
        """Indices of currently failed nodes."""
        return np.flatnonzero(~self.active)

    def _mask_failed(self, edges: np.ndarray) -> np.ndarray:
        """Drop edges with a failed endpoint from an edge set."""
        if self.active.all():
            return edges
        alive = self.active[edges[:, 0]] & self.active[edges[:, 1]]
        return edges[alive]

    def notify_node_fail(self, node: int) -> None:
        """Deliver ``on_node_fail`` (state wipe) to every protocol.

        Protocols are duck-typed (see :meth:`attach`), so hooks are
        looked up with ``getattr`` — an attached object predating the
        fault hooks simply does not hear about crashes.
        """
        for protocol in self._protocols:
            hook = getattr(protocol, "on_node_fail", None)
            if hook is not None:
                hook(self, node, self.time)

    def notify_node_recover(self, node: int) -> None:
        """Deliver ``on_node_recover`` to every protocol."""
        for protocol in self._protocols:
            hook = getattr(protocol, "on_node_recover", None)
            if hook is not None:
                hook(self, node, self.time)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _connect(self, positions: np.ndarray) -> IncrementalStepResult:
        """Unmasked unit-disk edge set at ``positions``: the engine's step.

        Its ``events``, when not ``None``, diff the previous call's
        edge set.  The one connectivity seam of :meth:`step`.
        """
        return self._incremental.step(positions)

    def step(self) -> LinkEvents:
        """Advance one step and deliver link events; returns the events."""
        timer = self.timer
        t0 = perf_counter()
        positions = self.mobility.advance(self.dt)
        t1 = perf_counter()
        timer.add("mobility", t1 - t0)
        if self.faults is not None:
            # Fault phase: apply scheduled crash/recover events and
            # outage-region membership *before* connectivity is
            # recomputed, so the new radio mask shapes this step's edge
            # set and the resulting link events.  Transitions fire at
            # the post-step clock, matching the link events they cause.
            self.faults.advance(self, self.time + self.dt, positions)
            t1b = perf_counter()
            timer.add("faults", t1b - t1)
            t1 = t1b
        all_active = bool(self.active.all())
        result = self._connect(positions)
        new_edges = self._mask_failed(result.edges)
        t2 = perf_counter()
        # The engine's mask-diff events describe the *unmasked*
        # connectivity; they stand in for diff_edge_sets only while no
        # radio was failed on either side of the diff.
        events = result.events
        if events is None or not (all_active and self._prev_all_active):
            events = diff_edge_sets(self.edges, new_edges)
        t3 = perf_counter()
        # Keep the sub-phases disjoint: "adjacency" is the engine step
        # minus the revalidation portion, which gets its own label so
        # the attribution stays honest.
        timer.add("adjacency", (t2 - t1) - result.revalidate_seconds)
        if not result.rebuilt:
            timer.add("incremental_revalidate", result.revalidate_seconds)
        self._prev_all_active = all_active
        # Applying the diff to the neighbor index is charged to the diff.
        t4 = perf_counter()
        broken = events.broken.tolist()
        generated = events.generated.tolist()
        self._advance_edges(new_edges, broken, generated)
        timer.add("link_diff", (t3 - t2) + (perf_counter() - t4))
        self.time += self.dt
        self.stats.advance_time(self.dt)

        if self._signal_taps:
            s0 = perf_counter()
            for tap in self._signal_taps:
                tap(self, events)
            timer.add("control_signals", perf_counter() - s0)

        tracer = self.tracer
        if tracer.enabled:
            for u, v in broken:
                tracer.emit("link_down", self.time, sim=self.sim_id, u=u, v=v)
            for u, v in generated:
                tracer.emit("link_up", self.time, sim=self.sim_id, u=u, v=v)

        track_spans = tracer.enabled
        if track_spans:
            if self._run_span_open:
                self._sync_phase_span()
            # Lazy: the step span only reaches the trace if a handler
            # span materializes inside it, so quiet steps cost nothing.
            self.spans.start_lazy("step", "step", self.time)

        protocols = self._protocols
        if protocols:
            time = self.time
            spent = [0.0] * len(protocols)
            for index, protocol in enumerate(protocols):
                h0 = perf_counter()
                protocol.on_step_begin(self, time)
                spent[index] += perf_counter() - h0
            for pairs, hook_name in (
                (broken, "on_link_down"),
                (generated, "on_link_up"),
            ):
                hooks = _overridden_hooks(protocols, hook_name)
                for u, v in pairs:
                    for index, hook in hooks:
                        h0 = perf_counter()
                        hook(self, u, v, time)
                        spent[index] += perf_counter() - h0
            for index, protocol in enumerate(protocols):
                h0 = perf_counter()
                protocol.on_step_end(self, time)
                spent[index] += perf_counter() - h0
            for protocol, seconds in zip(protocols, spent):
                timer.add(f"protocol:{protocol.name}", seconds)

        if track_spans:
            self.spans.end(self.time)

        if tracer.enabled:
            tracer.emit(
                "step",
                self.time,
                sim=self.sim_id,
                ups=int(events.generation_count),
                downs=int(events.break_count),
                measuring=self.stats.measuring,
            )
        return events

    def _advance_edges(
        self,
        new_edges: np.ndarray,
        broken: list[list[int]],
        generated: list[list[int]],
    ) -> None:
        """Install a step's edge set, carrying built neighbor lists over.

        ``broken``/``generated`` diff the previous edge set against
        ``new_edges``.  That holds for the edge set the last step
        installed, but not for one assigned from outside: the
        connectivity engine diffs against its own previous snapshot.  So
        lists are only carried over from a step-installed edge set, and
        otherwise rebuilt on next access.
        """
        lists = self._neighbor_lists_cache if self._edges_from_step else None
        self.edges = new_edges
        self._edges_from_step = True
        if lists is not None:
            self._neighbor_lists_cache = _apply_link_events(
                lists, broken, generated
            )

    def run(self, duration: float, warmup: float = 0.0) -> MessageStats:
        """Run ``warmup`` unmeasured time then ``duration`` measured time.

        Warm-up lets the cluster structure reach steady state so that —
        as in the paper — only the *maintenance* stage is measured.
        Returns the statistics object.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        if warmup < 0.0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        warmup_steps = int(round(warmup / self.dt))
        measured_steps = max(1, int(round(duration / self.dt)))
        self.trace_run_begin(duration, warmup)
        logger.info(
            "sim %d: running %d warm-up + %d measured steps (dt=%.4g)",
            self.sim_id,
            warmup_steps,
            measured_steps,
            self.dt,
        )
        wall_start = perf_counter()
        self.stats.stop_measuring()
        for _ in range(warmup_steps):
            self.step()
        self.stats.start_measuring()
        for _ in range(measured_steps):
            self.step()
        self.stats.stop_measuring()
        self.notify_run_end()
        logger.info(
            "sim %d: finished in %.2fs wall-clock",
            self.sim_id,
            perf_counter() - wall_start,
        )
        self.trace_run_end()
        return self.stats
