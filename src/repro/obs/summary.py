"""Trace aggregation: turn a JSONL trace back into per-category rates.

This is the read side of :class:`~repro.obs.tracer.JsonlTracer` and the
engine behind ``repro-manet trace-summary``: it folds the ``msg_tx``
event stream into per-category message/bit totals (per simulation run
and overall) and — when ``run_begin`` / ``run_end`` events are present —
derives the paper's per-node frequencies and checks that the streamed
events *exactly* reproduce the totals the run's
:class:`~repro.sim.stats.MessageStats` reported.  A trace that fails
reconciliation means events were lost or double-counted somewhere,
which is precisely the regression this closed loop exists to catch.

The same single pass also keeps the records the other trace consumers
need — cluster/control windows, the attribution ledger, residual
verdicts, the invariant-audit timeline, fault transitions and resource
samples — so ``report``, ``compare`` and ``metrics`` all read a trace
exactly once, through :func:`summarize_trace`, and share the one
aggregate function for each derived quantity.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .tracer import TRACE_SCHEMA_VERSION

__all__ = ["RunSummary", "TraceSummary", "read_trace", "summarize_trace"]

logger = logging.getLogger(__name__)


@dataclass
class AuditTimeline:
    """Aggregated ``invariant_audit`` stream of one simulation."""

    audits: int = 0
    violations: int = 0
    spans: list[tuple[float, float]] = field(default_factory=list)
    _open_since: float | None = None
    last_time: float | None = None

    def feed(self, record: dict) -> None:
        self.audits += 1
        time = float(record["t"])
        if record.get("ok", True):
            if self._open_since is not None:
                self.spans.append((self._open_since, time))
                self._open_since = None
        else:
            self.violations += 1
            if self._open_since is None:
                self._open_since = time
        self.last_time = time

    def close(self) -> None:
        if self._open_since is not None and self.last_time is not None:
            self.spans.append((self._open_since, self.last_time))
            self._open_since = None


@dataclass
class RunSummary:
    """Per-simulation aggregation of one trace."""

    sim: int
    messages: dict[str, int] = field(default_factory=dict)
    bits: dict[str, float] = field(default_factory=dict)
    n_nodes: int | None = None
    measured_time: float | None = None
    reported_totals: dict | None = None
    #: Per-event-type record counts for this run — the counts the
    #: cluster-dynamics report section reconciles its window sums
    #: against.
    events: dict[str, int] = field(default_factory=dict)
    #: ``cluster_window`` / ``control_window`` records, in trace order.
    cluster_windows: list[dict] = field(default_factory=list)
    control_windows: list[dict] = field(default_factory=list)
    #: The run-end ``attribution`` record (overhead ledger), if any.
    attribution: dict | None = None
    #: ``category -> list`` of ``kind="window"`` residual records, and
    #: ``category -> `` the ``kind="final"`` verdict record.
    residual_windows: dict[str, list[dict]] = field(default_factory=dict)
    residual_finals: dict[str, dict] = field(default_factory=dict)
    #: The ``invariant_audit`` stream, folded (``None`` when unaudited).
    audit: AuditTimeline | None = None
    #: ``fault_inject`` / ``fault_clear`` records, in trace order.
    faults: list[dict] = field(default_factory=list)

    def frequencies(self) -> dict[str, float] | None:
        """Per-node message frequencies, when run metadata is present."""
        if not self.n_nodes or not self.measured_time:
            return None
        scale = self.n_nodes * self.measured_time
        return {
            category: count / scale
            for category, count in sorted(self.messages.items())
        }

    def mismatches(self) -> list[str]:
        """Discrepancies between streamed events and reported totals."""
        if self.reported_totals is None:
            return []
        problems = []
        categories = set(self.reported_totals) | set(self.messages)
        for category in sorted(categories):
            reported = self.reported_totals.get(category, {})
            expected_messages = int(reported.get("messages", 0))
            expected_bits = float(reported.get("bits", 0.0))
            seen_messages = self.messages.get(category, 0)
            seen_bits = self.bits.get(category, 0.0)
            if seen_messages != expected_messages:
                problems.append(
                    f"sim {self.sim} {category}: traced {seen_messages} "
                    f"messages, run_end reported {expected_messages}"
                )
            if abs(seen_bits - expected_bits) > 1e-6 * max(1.0, expected_bits):
                problems.append(
                    f"sim {self.sim} {category}: traced {seen_bits:.6g} "
                    f"bits, run_end reported {expected_bits:.6g}"
                )
        return problems

    def window_totals(self) -> dict[str, int]:
        """Head changes, reaffiliations and gateway churn summed over the
        run's ``cluster_window`` series."""
        windows = self.cluster_windows
        return {
            "head_changes": sum(
                int(w.get("head_changes", 0)) for w in windows
            ),
            "reaffiliations": sum(
                int(w.get("reaffiliations", 0)) for w in windows
            ),
            "gateway_churn": sum(
                int(w.get("gateway_adds", 0)) + int(w.get("gateway_drops", 0))
                for w in windows
            ),
        }

    def control_totals(self) -> tuple[int, float | None, float | None]:
        """``(beacons, beacon-weighted mean interval, mean staleness)``
        over the run's ``control_window`` series."""
        windows = self.control_windows
        beacons = sum(int(w.get("beacons", 0)) for w in windows)
        interval_sum = sum(
            float(w.get("mean_interval", 0.0)) * int(w.get("beacons", 0))
            for w in windows
        )
        staleness = [float(w.get("staleness", 0.0)) for w in windows]
        return (
            beacons,
            interval_sum / beacons if beacons else None,
            sum(staleness) / len(staleness) if staleness else None,
        )

    def fault_counts(self) -> tuple[dict[tuple[str, str], int], float | None]:
        """``(kind, "inject" | "clear") -> count`` of the run's fault
        transitions, and the announced Bernoulli loss rate (if any)."""
        counts: dict[tuple[str, str], int] = {}
        loss_rate = None
        for record in self.faults:
            kind = str(record.get("kind", "?"))
            if kind == "loss":
                loss_rate = float(record.get("rate", 0.0))
                continue
            key = (kind, fault_verb(record))
            counts[key] = counts.get(key, 0) + 1
        return counts, loss_rate


def fault_verb(record: dict) -> str:
    """``"inject"`` for a ``fault_inject`` record, else ``"clear"``."""
    return "inject" if record.get("event") == "fault_inject" else "clear"


@dataclass
class TraceSummary:
    """Aggregation of a whole trace file (possibly many runs)."""

    path: str
    records: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    runs: dict[int, RunSummary] = field(default_factory=dict)
    first_time: float | None = None
    last_time: float | None = None
    #: ``resource_sample`` records (wall-clock; owned by no run).
    resources: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def messages(self) -> dict[str, int]:
        """Per-category message totals across every run."""
        return self._category_totals("messages", 0)

    @property
    def bits(self) -> dict[str, float]:
        """Per-category bit totals across every run."""
        return self._category_totals("bits", 0.0)

    def _category_totals(self, attribute: str, zero):
        totals = {}
        for run in self.runs.values():
            for category, count in getattr(run, attribute).items():
                totals[category] = totals.get(category, zero) + count
        return totals

    @property
    def spans(self) -> dict[str, int]:
        """Span-layer totals: started / ended / links across the trace."""
        counts = self.event_counts
        return {
            "started": counts.get("span_start", 0),
            "ended": counts.get("span_end", 0),
            "links": counts.get("span_link", 0),
        }

    def runs_with(self, attribute: str) -> list[RunSummary]:
        """The runs, in sim order, that kept any ``attribute`` record."""
        return [
            run for _, run in sorted(self.runs.items())
            if getattr(run, attribute)
        ]

    @property
    def cache(self) -> dict[str, int]:
        """``cache_hit`` / ``cache_miss`` / ``cache_write`` event counts."""
        return {
            event: count
            for event, count in self.event_counts.items()
            if event in ("cache_hit", "cache_miss", "cache_write")
        }

    def phase_totals(self) -> dict[str, float]:
        """Per-phase wall-clock seconds summed over the resource samples."""
        totals: dict[str, float] = {}
        for sample in self.resources:
            for phase, seconds in (sample.get("phases") or {}).items():
                totals[phase] = totals.get(phase, 0.0) + float(seconds)
        return totals

    def mismatches(self) -> list[str]:
        """All reconciliation problems across runs (empty when clean)."""
        problems: list[str] = []
        for sim in sorted(self.runs):
            problems.extend(self.runs[sim].mismatches())
        return problems

    def reconciles(self) -> bool:
        """Whether every run's events reproduce its reported totals."""
        return not self.mismatches()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "path": self.path,
            "records": self.records,
            "events": dict(sorted(self.event_counts.items())),
            "time_span": [self.first_time, self.last_time],
            "spans": self.spans,
            "messages": dict(sorted(self.messages.items())),
            "bits": dict(sorted(self.bits.items())),
            "runs": [
                {
                    "sim": run.sim,
                    "n_nodes": run.n_nodes,
                    "measured_time": run.measured_time,
                    "messages": dict(sorted(run.messages.items())),
                    "bits": dict(sorted(run.bits.items())),
                    "frequencies": run.frequencies(),
                    "events": dict(sorted(run.events.items())),
                }
                for _, run in sorted(self.runs.items())
            ],
            "reconciles": self.reconciles(),
            "mismatches": self.mismatches(),
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"trace: {self.path}  ({self.records} records)"]
        if self.first_time is not None:
            lines.append(
                f"  time span: {self.first_time:.4g} .. {self.last_time:.4g}"
            )
        for event, count in sorted(self.event_counts.items()):
            lines.append(f"  {event:24s} {count:10d} events")
        spans = self.spans
        if any(spans.values()):
            lines.append(
                "spans: {started} started, {ended} ended, "
                "{links} causal links".format(**spans)
            )
        lines.append("per-category message totals:")
        bits = self.bits
        for category, count in sorted(self.messages.items()):
            lines.append(
                f"  {category:16s} {count:10d} msgs {bits[category]:14.4g} bits"
            )
        for sim, run in sorted(self.runs.items()):
            frequencies = run.frequencies()
            if frequencies is None:
                continue
            lines.append(
                f"sim {sim} (N={run.n_nodes}, T={run.measured_time:.4g}):"
            )
            for category, rate in frequencies.items():
                lines.append(f"  {category:16s} {rate:10.4g} msgs/node/t")
        problems = self.mismatches()
        if problems:
            lines.append("RECONCILIATION FAILED:")
            lines.extend(f"  {p}" for p in problems)
        elif any(
            run.reported_totals is not None for run in self.runs.values()
        ):
            lines.append(
                "reconciliation: traced msg_tx events match reported totals"
            )
        return "\n".join(lines)


def read_trace(path):
    """Yield every record of a JSONL trace, checking the schema version.

    A malformed *final* line in a trace with no trailing newline — the
    signature of a writer killed mid-record — is skipped with a warning
    rather than failing the whole read; a malformed line anywhere else
    (or one the writer did terminate) still raises, because a trace
    that is corrupt in the middle cannot be trusted at all.
    """
    with open(path, encoding="utf-8") as lines:
        for line_number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                if not raw.endswith("\n"):
                    logger.warning(
                        "%s:%d: skipping truncated final record "
                        "(trace writer was interrupted mid-line)",
                        path,
                        line_number,
                    )
                    return
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            version = record.get("schema")
            if version != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{line_number}: unsupported trace schema "
                    f"version {version!r} (supported: {TRACE_SCHEMA_VERSION})"
                )
            yield record


def summarize_trace(path) -> TraceSummary:
    """Aggregate a trace file into a :class:`TraceSummary`.

    Raises ``ValueError`` when the trace contains no records at all —
    an empty file is always a broken pipeline, never a healthy run.
    """
    summary = TraceSummary(path=str(path))
    for record in read_trace(path):
        summary.records += 1
        event = record.get("event", "?")
        summary.event_counts[event] = summary.event_counts.get(event, 0) + 1
        if event == "resource_sample":
            # Wall-clock envelope and no owning run.
            summary.resources.append(record)
            continue
        if event.startswith("cache_"):
            continue  # no owning run; counted above only
        time = record.get("t")
        if time is not None:
            if summary.first_time is None:
                summary.first_time = time
            summary.last_time = time
        sim = int(record.get("sim", 0))
        run = summary.runs.get(sim)
        if run is None:
            run = summary.runs[sim] = RunSummary(sim=sim)
        run.events[event] = run.events.get(event, 0) + 1
        if event == "msg_tx":
            category = record["category"]
            run.messages[category] = run.messages.get(category, 0) + int(
                record.get("messages", 1)
            )
            run.bits[category] = run.bits.get(category, 0.0) + float(
                record.get("bits", 0.0)
            )
        elif event == "cluster_window":
            run.cluster_windows.append(record)
        elif event == "invariant_audit":
            if run.audit is None:
                run.audit = AuditTimeline()
            run.audit.feed(record)
        elif event == "residual":
            category = record.get("category", "?")
            if record.get("kind") == "final":
                run.residual_finals[category] = record
            else:
                run.residual_windows.setdefault(category, []).append(record)
        elif event == "control_window":
            run.control_windows.append(record)
        elif event in ("fault_inject", "fault_clear"):
            run.faults.append(record)
        elif event == "attribution":
            run.attribution = record
        elif event == "run_begin":
            run.n_nodes = int(record["n_nodes"])
        elif event == "run_end":
            run.measured_time = float(record["measured_time"])
            run.reported_totals = record.get("totals")
    if summary.records == 0:
        raise ValueError(f"{path}: empty trace (no records)")
    for run in summary.runs_with("audit"):
        run.audit.close()
    return summary
