"""One trial of a workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/trial.py <workload> <seed>
<mode> <budget_s> <workdir>``; prints one JSON object as its last line.

Modes:

``setup``
    Time ``import repro.cli`` and stack assembly up to the first
    ``Simulation.step`` (the first ``run_tasks`` for a sweep), then time
    the calibration kernel for a moment and stop.
``untraced``
    Set up, then run the workload body repeatedly until the budget is
    spent; every body is timed with the benchmark's tracing off.
``traced``
    Set up, then alternate an untraced body with a traced one (spans
    installed, see :mod:`layers`) until the budget is spent, and at
    least twice.

A body in which the program raises is recorded as a failed one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import layers
from workloads import WORKLOADS, BodyResult, SweepWorkload


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped worker processes, in MB."""
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _stop_workers() -> None:
    """Shut the sweep's shared worker pool and wait for its processes."""
    import multiprocessing

    from repro.analysis import parallel

    parallel._discard_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()


def _raised(error: Exception) -> BodyResult:
    """A body that the program cut short by raising: a failed operation."""
    return BodyResult(0.0, 0.0, "", 0.0, 0.0, [f"raised: {error!r}"])


def _traced_body(workload, seed, workdir, jobs=None):
    """One body under the benchmark's spans; returns (result, metrics...)."""
    from repro.obs import PhaseTimer, observe

    recorder = layers.Recorder()
    timer = PhaseTimer()
    kwargs = {} if jobs is None else {"jobs": jobs}
    try:
        with layers.instrumented(recorder), observe(timer=timer):
            result = workload.run(
                seed, workdir, wrap=recorder.span,
                tracer_cls=layers.span_tracer_class(recorder), **kwargs,
            )
    except Exception as error:
        return _raised(error), None
    if result.problems:
        return result, None
    return result, layers.layer_metrics(
        recorder, timer.report(), result.wall_s, result.extra
    )


def _untraced_body(workload, seed, workdir, jobs=None):
    """One body with the benchmark's tracing off, timed against the host.

    Returns the result, its wall time less the calibration samples taken
    while it ran, and the program's PhaseTimer total.
    """
    from repro.obs import PhaseTimer, observe

    timer = PhaseTimer()
    nearby: list[float] = []
    kwargs = {} if jobs is None else {"jobs": jobs}
    try:
        with calibrate.stepping(), observe(timer=timer):
            result = workload.run(
                seed, workdir, wrap=calibrate.around(nearby), **kwargs
            )
    except Exception as error:
        return _raised(error), 0.0
    phases = {p.phase: p for p in timer.report().phases}
    stepped = phases.pop(calibrate.PHASE, None)
    stepped_s, stepped_n = (
        (stepped.seconds, stepped.calls) if stepped else (0.0, 0)
    )
    if nearby or stepped_n:
        result.calibration_s = (
            (sum(nearby) + stepped_s) / (len(nearby) + stepped_n)
        )
    # Samples taken in parallel workers stretch the body by their share.
    result.wall_s -= sum(nearby) + stepped_s / workload.workers(jobs)
    return result, sum(p.seconds for p in phases.values())


def _cycle(workload, seed, workdir, mode) -> list[dict]:
    """One unit of work: a body, or an untraced/traced pair of them."""
    if mode == "untraced":
        plain, _ = _untraced_body(workload, seed, workdir)
        return [dict(plain.to_dict(), mode="untraced")]
    if not isinstance(workload, SweepWorkload):
        plain, _ = _untraced_body(workload, seed, workdir)
        traced, layered = _traced_body(workload, seed, workdir)
        bodies = [dict(plain.to_dict(), mode="untraced"),
                  dict(traced.to_dict(), mode="traced")]
        if layered is not None and not plain.problems:
            metrics, counts, self_times = layered
            metrics["bench.trace_overhead"] = traced.wall_s / plain.wall_s
            bodies[1].update(metrics=metrics, counts=counts,
                             self_times=self_times)
        return bodies
    # The sweep: untraced jobs=N and jobs=1 give the speed-up and the
    # worker inflation; the traced jobs=1 body gives every in-process
    # layer, the traced jobs=N body the parent-side merge and task count.
    parallel, parallel_phase_s = _untraced_body(workload, seed, workdir)
    serial, serial_phase_s = _untraced_body(workload, seed, workdir, jobs=1)
    traced, layered = _traced_body(workload, seed, workdir, jobs=1)
    traced_parallel, layered_parallel = _traced_body(workload, seed, workdir)
    bodies = [
        dict(parallel.to_dict(), mode="untraced"),
        dict(serial.to_dict(), mode="untraced-serial"),
        dict(traced.to_dict(), mode="traced"),
        dict(traced_parallel.to_dict(), mode="traced-parallel"),
    ]
    if all(b["problems"] == [] for b in bodies):
        metrics, counts, self_times = layered
        metrics.update({
            "parallel.speedup": serial.wall_s / parallel.wall_s,
            "parallel.worker_inflation": parallel_phase_s / serial_phase_s,
            "parallel.merge_s": layered_parallel[0]["parallel.merge_s"],
            "bench.trace_overhead": traced.wall_s / serial.wall_s,
        })
        bodies[2].update(metrics=metrics, counts=counts,
                         self_times=self_times)
    return bodies


def measure(workload, seed, workdir, mode, budget) -> list[dict]:
    """Repeat cycles until ``budget`` seconds are spent; the bodies run.

    A traced run repeats at least two cycles, so that the exact work
    counts of two traced bodies are always compared.
    """
    least = 2 if mode == "traced" else 1
    bodies: list[dict] = []
    first = perf_counter()
    cycles = 0
    while True:
        cycle_started = perf_counter()
        bodies.extend(_cycle(workload, seed, workdir, mode))
        cycles += 1
        now = perf_counter()
        if cycles >= least and now - first + (now - cycle_started) > budget:
            return bodies


def main(argv: list[str]) -> int:
    name, seed, mode, budget, workdir = argv
    seed, budget, workdir = int(seed), float(budget), Path(workdir)
    workload = WORKLOADS[name]

    started = perf_counter()
    import repro.cli  # noqa: F401  (the cold import is part of set-up)

    import_s = perf_counter() - started
    out: dict = {"import_s": import_s}
    if mode == "setup":
        setup = workload.run(seed, workdir, stop_at_setup=True)
        out["assemble_s"] = setup.assemble_s
        out["calibration_s"] = calibrate.mean_sample(calibrate.AFTER_SETUP_S)
        print(json.dumps(out))
        return 0

    try:
        out["bodies"] = measure(workload, seed, workdir, mode, budget)
    finally:
        _stop_workers()
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
