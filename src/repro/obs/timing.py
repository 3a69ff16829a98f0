"""Per-phase wall-clock accounting for simulation runs.

The simulation kernel charges every step's work to named phases —
``mobility`` (model advance), ``adjacency`` (unit-disk recompute),
``link_diff`` (event extraction and the neighbor-list update) and one
``protocol:<name>`` phase per attached protocol — into a
:class:`PhaseTimer`.  A timer can be private
to one :class:`~repro.sim.engine.Simulation` or shared through the
ambient observability context (see :mod:`repro.obs.context`) so that a
whole sweep or benchmark accumulates a single breakdown.

Timing is always on: the cost is a handful of ``perf_counter`` calls
per step, orders of magnitude below the adjacency recompute they
measure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PhaseTimer", "PhaseTiming", "TimingReport"]


@dataclass(frozen=True)
class PhaseTiming:
    """Accumulated wall-clock for one phase."""

    phase: str
    seconds: float
    calls: int

    @property
    def mean_seconds(self) -> float:
        """Mean wall-clock per call (NaN when never called)."""
        if self.calls == 0:
            return float("nan")
        return self.seconds / self.calls


@dataclass(frozen=True)
class TimingReport:
    """Snapshot of a :class:`PhaseTimer`, renderable as a table."""

    phases: tuple[PhaseTiming, ...]

    @property
    def total_seconds(self) -> float:
        """Wall-clock summed over every phase."""
        return sum(p.seconds for p in self.phases)

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "total_seconds": self.total_seconds,
            "phases": [
                {
                    "phase": p.phase,
                    "seconds": p.seconds,
                    "calls": p.calls,
                }
                for p in self.phases
            ],
        }

    def render(self) -> str:
        """Human-readable per-phase breakdown, slowest phase first."""
        lines = ["phase timing (wall-clock)"]
        total = self.total_seconds
        ordered = sorted(self.phases, key=lambda p: -p.seconds)
        for timing in ordered:
            share = timing.seconds / total if total > 0 else 0.0
            lines.append(
                f"  {timing.phase:28s} {timing.seconds:10.4f} s "
                f"{share:7.1%}  ({timing.calls} calls, "
                f"{1e6 * timing.mean_seconds:9.1f} us/call)"
            )
        lines.append(f"  {'total':28s} {total:10.4f} s")
        return "\n".join(lines)


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` of wall-clock to ``phase``."""
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._calls[phase] = self._calls.get(phase, 0) + calls

    @contextmanager
    def phase(self, name: str):
        """Context manager charging its body's duration to ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    def reset(self) -> None:
        """Drop all accumulated phases."""
        self._seconds.clear()
        self._calls.clear()

    # ------------------------------------------------------------------
    @property
    def phases(self) -> list[str]:
        """Phase names seen so far, in first-use order."""
        return list(self._seconds)

    def seconds(self, phase: str) -> float:
        """Accumulated wall-clock of ``phase`` (0 when unseen)."""
        return self._seconds.get(phase, 0.0)

    def report(self) -> TimingReport:
        """Immutable snapshot of the current accumulation."""
        return TimingReport(
            phases=tuple(
                PhaseTiming(name, self._seconds[name], self._calls[name])
                for name in self._seconds
            )
        )
