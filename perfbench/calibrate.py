"""Host-speed calibration.

The hosts this benchmark runs on share cores with other tenants.  A
fixed loop's speed flips between two levels about 1.6x apart every few
seconds, while CPU time stays equal to wall time: the program is not
descheduled, it runs slower.  So the untraced bodies time this fixed
kernel *while they run* (every few simulation steps, also inside sweep
workers, and around the long calls that take no steps), take those
samples out of the body's wall time, and report the body in
reference-host seconds: wall time x :data:`REFERENCE_S` / mean kernel
time.  Set-up is too short to sample inside, so each set-up trial times
the kernel right after it instead.  A mean, not a median: the host's speed is bimodal, and only the
mean moves in step with the share of time spent at each level.  The
kernel does the simulator's kind of work (dictionary and set churn in
the interpreter, small NumPy scans) so that both slow down together.
It must never change: it is the benchmark's unit of host speed.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import count
from time import perf_counter

__all__ = ["PHASE", "REFERENCE_S", "around", "mean_sample", "sample",
           "stepping"]

#: Kernel time on an undisturbed reference host; times are reported as
#: seconds on such a host.
REFERENCE_S = 1.0e-3
#: PhaseTimer phase the step samples are charged to.  Worker processes
#: ship their timers back to the parent, so sweep samples arrive there.
PHASE = "bench.calibration"
#: Simulation steps between two samples.
EVERY = 4
#: Samples taken before and after a call that takes no steps.
AROUND = 8
#: Seconds of back-to-back samples that gauge the host right after set-up.
AFTER_SETUP_S = 0.25


def sample() -> float:
    """One timing of the calibration kernel, in seconds.

    The garbage collector is off while the kernel runs: a collection its
    allocations would trigger runs later, in the program, and is charged
    to the program's wall time instead of the kernel's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    import numpy as np

    start = perf_counter()
    heads: dict[int, int] = {}
    members = [set() for _ in range(50)]
    for i in range(6000):
        u = (i * 7919) % 2000
        v = (i * 104729) % 2000
        head = heads.get(u)
        if head is None:
            heads[u] = v % 50
        else:
            members[head].add(v)
            if len(members[head]) > 40:
                members[head].discard(u)
    alive = np.zeros(2000, dtype=bool)
    for i in range(40):
        alive[(i * 37) % 2000] = True
        np.flatnonzero(alive)
    return perf_counter() - start


def mean_sample(seconds: float) -> float:
    """Mean kernel time over ``seconds`` of back-to-back samples."""
    samples = []
    until = perf_counter() + seconds
    while not samples or perf_counter() < until:
        samples.append(sample())
    return sum(samples) / len(samples)


@contextmanager
def stepping():
    """Sample every :data:`EVERY` steps of every simulation, into its timer.

    Worker processes forked while this is active keep sampling for their
    whole life, which is what the sweep's parallel bodies need.
    """
    from repro.sim.engine import Simulation

    original = Simulation.__dict__["step"]
    steps = count(1)

    def step(sim):
        if next(steps) % EVERY == 0:
            sim.timer.add(PHASE, sample())
        return original(sim)

    Simulation.step = step
    try:
        yield
    finally:
        Simulation.step = original


def around(samples: list[float]):
    """A ``wrap(name, fn)`` that samples :data:`AROUND` times either side."""

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            samples.extend(sample() for _ in range(AROUND))
            try:
                return fn(*args, **kwargs)
            finally:
                samples.extend(sample() for _ in range(AROUND))

        return wrapper

    return wrap
