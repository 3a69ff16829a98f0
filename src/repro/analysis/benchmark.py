"""Engine performance benchmark: edge-set core vs the dense baseline.

``repro-manet bench`` drives this module and writes ``BENCH_engine.json``.
It answers three questions about the simulation substrate:

* **How much faster is the simulation's connectivity kernel?**  The
  incremental engine mode times :meth:`Simulation.step`, which runs the
  temporal-coherence kernel (:mod:`repro.spatial.incremental`).  Two
  batch baselines run inline: the edge engine rebuilds the edge set
  with :func:`~repro.spatial.neighbors.compute_edges` and diffs it with
  :func:`~repro.spatial.neighbors.diff_edge_sets` every step, and the
  dense baseline re-implements the pre-edge-set kernel — per-step dense
  ``O(N^2)`` adjacency recomputation plus matrix diffing, exactly the
  work the seed engine did.  All paths run the same mobility model
  with the same seeds, so the steps/sec ratios isolate the
  connectivity kernel.  Each incremental row is preceded by an
  **equivalence check** — a short lockstep run against the edge
  baseline asserting identical per-step edge sets and link events — so
  a speedup number is never reported for a kernel that silently
  diverged.
* **Where is the dense/grid crossover?**  ``--crossover`` times
  :func:`~repro.spatial.neighbors.compute_edges` under both methods
  across sizes; the measured ratio table is the evidence behind
  ``GRID_CROSSOVER_NODES``.
* **Does process parallelism pay?**  ``--sweep-jobs`` times an
  identical small sweep point at several ``jobs`` values; numbers are
  whatever the current machine supports (a single-core container shows
  overhead, not speedup — the report records ``cpu_count`` so readers
  can judge).

Peak RSS is read from ``getrusage`` and is monotone over the process
lifetime; modes are benchmarked smallest-N-first so the per-mode
snapshot is still a usable upper bound for that mode.  A background
:class:`~repro.obs.resources.ResourceSampler` additionally records the
*current* RSS and CPU utilisation over the whole benchmark
(``resources`` in the report).

**Bench history** (``repro-manet bench --history FILE``) turns a
one-off report into a perf-regression tracker: each run appends one
compact JSONL entry (machine, config, steps/sec per benchmark point) to
the history file, and :func:`update_bench_history` flags every point
whose steps/sec fell more than the threshold (default 20%) below the
best prior entry — the CLI exits non-zero on any flagged point, which
is how CI gates engine performance.
"""

from __future__ import annotations

import json
import logging
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel
from ..obs.resources import ResourceSampler
from ..obs.timing import PhaseTimer
from ..sim import Simulation, recommended_step
from ..spatial import (
    Boundary,
    SquareRegion,
    compute_edges,
    diff_adjacency,
    diff_edge_sets,
    select_connectivity_method,
)

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_MODES",
    "DEFAULT_REGRESSION_THRESHOLD",
    "bench_step_modes",
    "check_equivalence",
    "measure_crossover",
    "bench_parallel_sweep",
    "run_bench",
    "write_bench",
    "history_entry",
    "update_bench_history",
]

logger = logging.getLogger(__name__)

#: Fractional steps/sec drop vs the best prior history entry that
#: counts as a regression.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Network sizes the step benchmark reports on.
DEFAULT_SIZES = (100, 500, 2000, 5000)

#: Dense baseline is skipped above this size by default: the O(N^2)
#: kernel needs ~minutes per point there, and the trend is long clear.
DEFAULT_DENSE_LIMIT = 2000

#: Kernel modes the step benchmark runs, in reporting order.  Tokens
#: are the ``--modes`` CLI vocabulary; labels are the ``mode`` field in
#: result rows and history points.
DEFAULT_MODES = ("edge", "incremental", "dense")

_MODE_LABELS = {
    "edge": "edge-engine",
    "incremental": "incremental-engine",
    "dense": "dense-baseline",
}

#: speedup-table marker: the point was skipped on purpose, not lost.
SKIPPED_DENSE_LIMIT = "skipped (dense_limit)"
SKIPPED_MODE = "skipped (mode not run)"


def _peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _params_for(n_nodes: int) -> NetworkParameters:
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=0.1, velocity_fraction=0.05
    )


def _phase_dict(timer: PhaseTimer) -> dict[str, float]:
    return {p.phase: p.seconds for p in timer.report().phases}


class _BatchKernel:
    """The simulation's mobility with connectivity rebuilt every step.

    ``connect(region, positions, tx_range)`` computes a connectivity
    snapshot from scratch and ``diff(previous, current)`` turns two
    snapshots into link events.  Region, mobility, seed and step size
    are those of the :class:`Simulation` the incremental mode builds,
    and :meth:`step` times the same phases as :meth:`Simulation.step`.
    """

    def __init__(self, params: NetworkParameters, connect, diff, seed=0):
        self.region = SquareRegion(params.side, Boundary.TORUS)
        self.mobility = EpochRandomWaypointModel(params.velocity, epoch=1.0)
        self.mobility.reset(params.n_nodes, self.region, seed)
        self.dt = recommended_step(params.tx_range, params.velocity)
        self.tx_range = params.tx_range
        self.connect = connect
        self.diff = diff
        self.state = connect(
            self.region, self.mobility.positions, self.tx_range
        )
        self.timer = PhaseTimer()

    def step(self):
        t0 = perf_counter()
        positions = self.mobility.advance(self.dt)
        t1 = perf_counter()
        state = self.connect(self.region, positions, self.tx_range)
        t2 = perf_counter()
        events = self.diff(self.state, state)
        t3 = perf_counter()
        self.timer.add("mobility", t1 - t0)
        self.timer.add("adjacency", t2 - t1)
        self.timer.add("link_diff", t3 - t2)
        self.state = state
        return events


#: ``(connect, diff)`` of the two inline batch baselines.
_BATCH_KERNELS = {
    "edge": (compute_edges, diff_edge_sets),
    "dense": (SquareRegion.adjacency, diff_adjacency),
}


def _bench_mode(
    token: str, params: NetworkParameters, steps: int, seed: int = 0
) -> dict:
    """Time ``steps`` steps of one kernel mode; returns its result row."""
    if token == "incremental":
        kernel = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=seed,
            timer=PhaseTimer(),
        )
    else:
        kernel = _BatchKernel(params, *_BATCH_KERNELS[token], seed=seed)
    start = perf_counter()
    for _ in range(steps):
        kernel.step()
    elapsed = perf_counter() - start
    row = {
        "mode": _MODE_LABELS[token],
        "n_nodes": params.n_nodes,
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_sec": steps / elapsed,
        "phases_s": _phase_dict(kernel.timer),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if token == "edge":
        # The path compute_edges(method="auto") resolves to.
        row["connectivity"] = select_connectivity_method(
            params.n_nodes, params.tx_range, params.side
        )
    if token == "incremental":
        engine = kernel._incremental
        row["engine_stats"] = {
            "full_rebuilds": engine.full_rebuilds,
            "incremental_steps": engine.incremental_steps,
            "mean_at_risk": (
                engine.at_risk_total / engine.incremental_steps
                if engine.incremental_steps
                else 0.0
            ),
        }
    return row


def check_equivalence(
    params: NetworkParameters, steps: int = 30, seed: int = 0
) -> str:
    """Run the simulation's kernel against the edge baseline in lockstep.

    The reference rebuilds the edge set with ``compute_edges`` (dense or
    grid, as its cost model picks; both pinned equal by the test suite)
    and diffs it with ``diff_edge_sets`` every step.  Compares the
    sorted edge set and the link events after every step; returns
    ``"ok"`` or a description of the first mismatch.  The default
    ``steps`` spans several of the engine's validation cycles (about
    every 8 steps at the recommended step): a run shorter than one
    cycle never tests whether the engine revalidates in time.
    """
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
    )
    reference = _BatchKernel(params, *_BATCH_KERNELS["edge"], seed=seed)
    if not np.array_equal(sim.edges, reference.state):
        return "initial edge sets differ (vs batch rebuild)"
    for step in range(1, steps + 1):
        events = sim.step()
        expected = reference.step()
        if not np.array_equal(sim.edges, reference.state):
            return f"edge sets differ at step {step} (vs batch rebuild)"
        for field in ("generated", "broken"):
            if not np.array_equal(
                getattr(events, field), getattr(expected, field)
            ):
                return (
                    f"{field} link events differ at step {step} "
                    "(vs batch rebuild)"
                )
    return "ok"


def bench_step_modes(
    sizes=DEFAULT_SIZES,
    steps: int = 30,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    modes=DEFAULT_MODES,
) -> tuple[list[dict], dict[str, dict]]:
    """Benchmark the requested kernels across ``sizes``.

    Returns ``(results, tables)``.  ``tables`` holds three per-size
    maps keyed by ``str(N)``:

    * ``"speedup_vs_dense"`` — mode steps/sec over the dense
      baseline's, per mode label; skipped points carry an explicit
      string marker (:data:`SKIPPED_DENSE_LIMIT` above ``dense_limit``,
      :data:`SKIPPED_MODE` when the mode wasn't requested) so no row is
      ever silently ``null``.
    * ``"speedup_vs_edge"`` — same shape relative to the edge engine;
      defined at every size the edge engine ran, which is how large-N
      rows keep a numeric speedup even where dense is skipped.
    * ``"equivalence"`` — the :func:`check_equivalence` verdict for the
      incremental engine at that size (``"ok"`` or a mismatch string).
    """
    unknown = [m for m in modes if m not in _MODE_LABELS]
    if unknown:
        raise ValueError(
            f"unknown bench modes {unknown}; "
            f"choose from {sorted(_MODE_LABELS)}"
        )
    results: list[dict] = []
    speedup_vs_dense: dict[str, dict[str, float | str]] = {}
    speedup_vs_edge: dict[str, dict[str, float | str]] = {}
    equivalence: dict[str, str] = {}
    for n_nodes in sorted(sizes):
        params = _params_for(n_nodes)
        per_size: dict[str, dict] = {}
        if "incremental" in modes:
            equivalence[str(n_nodes)] = check_equivalence(params)
        for token in DEFAULT_MODES:
            if token in modes and not (
                token == "dense" and n_nodes > dense_limit
            ):
                per_size[token] = _bench_mode(token, params, steps)
        results.extend(per_size.values())

        def _ratios(baseline_token: str, skip_marker: str) -> dict:
            baseline = per_size.get(baseline_token)
            table: dict[str, float | str] = {}
            for token in modes:
                if token == baseline_token:
                    continue
                label = _MODE_LABELS[token]
                row = per_size.get(token)
                if row is None:
                    table[label] = SKIPPED_MODE
                elif baseline is None:
                    table[label] = skip_marker
                else:
                    table[label] = (
                        row["steps_per_sec"] / baseline["steps_per_sec"]
                    )
            return table

        if "dense" in modes:
            speedup_vs_dense[str(n_nodes)] = _ratios(
                "dense", SKIPPED_DENSE_LIMIT
            )
        if "edge" in modes:
            speedup_vs_edge[str(n_nodes)] = _ratios("edge", SKIPPED_MODE)
    tables = {
        "speedup_vs_dense": speedup_vs_dense,
        "speedup_vs_edge": speedup_vs_edge,
        "equivalence": equivalence,
    }
    return results, tables


def measure_crossover(
    sizes=(32, 64, 100, 128, 256, 512), repeats: int = 3
) -> list[dict]:
    """Time ``compute_edges`` dense vs grid per size (min over repeats).

    ``ratio > 1`` means the grid wins; this table is the measurement
    behind :data:`~repro.spatial.neighbors.GRID_CROSSOVER_NODES`.
    """
    rows = []
    for n_nodes in sizes:
        params = _params_for(n_nodes)
        region = SquareRegion(params.side, Boundary.TORUS)
        positions = region.uniform_positions(n_nodes, 0)
        timings = {}
        for method in ("dense", "grid"):
            best = np.inf
            for _ in range(repeats):
                start = perf_counter()
                compute_edges(region, positions, params.tx_range, method=method)
                best = min(best, perf_counter() - start)
            timings[method] = best
        rows.append(
            {
                "n_nodes": n_nodes,
                "dense_s": timings["dense"],
                "grid_s": timings["grid"],
                "ratio": timings["dense"] / timings["grid"],
            }
        )
    return rows


def bench_parallel_sweep(
    jobs_values=(1, 4),
    n_nodes: int = 120,
    seeds: int = 4,
    duration: float = 4.0,
) -> dict:
    """Wall-clock one sweep point at each ``jobs`` value.

    The per-seed work and results are identical across rows (the runner
    is deterministic), so the wall-clock ratio is pure scheduling.
    ``chunk_size`` records how many tasks each worker dispatch carried
    (the amortization knob of :func:`repro.analysis.parallel.run_tasks`).
    """
    from .parallel import task_chunk_size
    from .sweep import measure_point

    params = _params_for(n_nodes)
    rows = []
    serial_s: float | None = None
    for jobs in jobs_values:
        start = perf_counter()
        measure_point(
            params,
            params.tx_range,
            seeds=seeds,
            duration=duration,
            warmup=duration * 0.15,
            jobs=jobs,
        )
        elapsed = perf_counter() - start
        if jobs == 1:
            serial_s = elapsed
        rows.append(
            {
                "jobs": jobs,
                "chunk_size": task_chunk_size(seeds, jobs),
                "wall_s": elapsed,
                "vs_serial": None if serial_s is None else elapsed / serial_s,
            }
        )
    return {
        "n_nodes": n_nodes,
        "seeds": seeds,
        "duration": duration,
        "rows": rows,
    }


def run_bench(
    sizes=DEFAULT_SIZES,
    steps: int = 30,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    crossover: bool = False,
    sweep_jobs=None,
    modes=DEFAULT_MODES,
) -> dict:
    """Run the requested benchmark stages and assemble the report."""
    import os

    from ..sim.engine import ENGINE_SCHEMA_VERSION

    payload: dict = {
        "schema_version": 2,
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "sizes": list(sizes),
            "steps": steps,
            "dense_limit": dense_limit,
            "modes": list(modes),
        },
        "notes": [
            "dense-baseline re-implements the pre-edge-set kernel "
            "(per-step O(N^2) adjacency + matrix diff) inline",
            "edge-engine rebuilds the edge set with compute_edges "
            "(method auto) + diff_edge_sets every step, inline",
            "incremental-engine times Simulation.step; its rows are "
            "preceded by a lockstep equivalence check against the "
            "edge-engine rebuild (see the equivalence table)",
            "peak_rss_kb is process-monotone (getrusage); modes run "
            "smallest-N-first",
        ],
    }
    sampler = ResourceSampler(interval=0.2)
    with sampler:
        results, tables = bench_step_modes(
            sizes, steps, dense_limit, modes
        )
        payload["step_benchmarks"] = results
        payload.update(tables)
        if crossover:
            payload["crossover"] = measure_crossover()
        if sweep_jobs:
            payload["parallel_sweep"] = bench_parallel_sweep(
                tuple(sweep_jobs)
            )
    payload["resources"] = sampler.summary()
    return payload


def write_bench(payload: dict, path: str | Path) -> Path:
    """Write a benchmark report as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Bench history: perf-regression tracking across runs
# ----------------------------------------------------------------------
def history_entry(payload: dict) -> dict:
    """Compact JSONL history record for one benchmark report.

    ``points`` maps ``"<mode>:N<size>"`` to steps/sec, so entries from
    differently-configured runs only gate against each other where
    they measured the same point.  ``phases`` carries each point's
    per-phase *seconds per step*, which is what lets a later regression
    be attributed to the phase whose cost moved
    (:func:`repro.obs.compare.diff_phases`).
    """
    points: dict[str, float] = {}
    phases: dict[str, dict[str, float]] = {}
    for row in payload.get("step_benchmarks", []):
        key = f"{row['mode']}:N{row['n_nodes']}"
        points[key] = row["steps_per_sec"]
        steps = row.get("steps") or 0
        if steps and row.get("phases_s"):
            phases[key] = {
                phase: seconds / steps
                for phase, seconds in row["phases_s"].items()
            }
    return {
        "schema": 1,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": payload.get("machine", {}),
        "config": payload.get("config", {}),
        "points": points,
        "phases": phases,
    }


def _read_history(path: Path) -> list[dict]:
    """Prior history entries; malformed lines are skipped with a warning."""
    entries: list[dict] = []
    if not path.exists():
        return entries
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            logger.warning(
                "%s:%d: skipping malformed bench-history line",
                path,
                line_number,
            )
    return entries


def update_bench_history(
    payload: dict,
    path: str | Path,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> tuple[dict, list[str]]:
    """Append this run to the history and flag steps/sec regressions.

    Every benchmark point is compared against the *best* prior entry
    for the same point; a drop of more than ``threshold`` (fraction) is
    a regression.  The new entry is appended regardless, so a
    regression is recorded evidence, not a write failure.  Returns
    ``(entry, regressions)``; an empty regression list means the gate
    passes (including the very first run, which has nothing to gate
    against).  When both the best prior entry and this run recorded
    per-phase timings for a regressed point, the regression line is
    followed by an attribution of the phases whose per-step cost moved
    most.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"threshold must lie in (0, 1), got {threshold}"
        )
    from ..obs.compare import diff_phases

    path = Path(path)
    entry = history_entry(payload)
    best_prior: dict[str, float] = {}
    best_phases: dict[str, dict[str, float]] = {}
    for prior in _read_history(path):
        for key, value in (prior.get("points") or {}).items():
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            if value > best_prior.get(key, 0.0):
                best_prior[key] = value
                phases = (prior.get("phases") or {}).get(key)
                if phases:
                    best_phases[key] = phases
                else:
                    best_phases.pop(key, None)
    regressions: list[str] = []
    for key, current in sorted(entry["points"].items()):
        best = best_prior.get(key)
        if best is None or best <= 0.0:
            continue
        if current < (1.0 - threshold) * best:
            regressions.append(
                f"{key}: {current:.1f} steps/s is "
                f"{1.0 - current / best:.1%} below the best prior "
                f"{best:.1f} steps/s (threshold {threshold:.0%})"
            )
            prior_phases = best_phases.get(key)
            current_phases = entry["phases"].get(key)
            if prior_phases and current_phases:
                regressions.extend(
                    f"{key}:   phase {line} s/step"
                    for line in diff_phases(prior_phases, current_phases)
                )
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return entry, regressions
