"""Cross-run trace diffing: ``repro-manet compare <a> <b>``.

Two traced runs of the same scenario rarely fail identically — a perf
regression, a seed change, or a model edit shows up as *shifted rates*.
This module digests each trace into a compact set of comparable
metrics and diffs them:

* **overhead rates** — per-category per-node message frequencies
  (``msg_tx`` folded through :func:`~repro.obs.summary.summarize_trace`,
  averaged across the trace's runs);
* **cluster dynamics** — head-change / reaffiliation / gateway-churn
  rates and structural means from the ``cluster_window`` series, which
  is what lets an overhead delta be *attributed*: the paper's model
  says CLUSTER and ROUTE overhead follow maintenance-event rates, so a
  run whose cluster overhead moved together with its head-change rate
  has a mechanistic explanation, not just a diff — and when both traces
  carry overhead-attribution ledgers the delta is further decomposed
  into exact per-cause contributions (head-merge cascades,
  reaffiliations, ...);
* **residual verdicts** — the per-category ``kind="final"`` outcomes of
  the analytic-residual monitor (a verdict *flip* between runs always
  fails the gate, whatever the threshold);
* **phase timings** — per-phase wall-clock totals from the
  ``resource_sample`` stream (informational);
* **span totals** — spans started / causal links (informational).

The gate: any *gating* metric (overhead rates and dynamics rates) whose
relative delta exceeds the threshold, or any residual verdict change,
makes the comparison "exceeding" — the CLI maps that to exit code 1, so
``compare`` slots into CI next to the bench-history check.  A trace
compared against itself always yields zero deltas and exit 0.

:func:`diff_phases` is the shared attribution helper: ``repro-manet
bench --history`` uses it to annotate steps/sec regressions with the
engine phases whose per-step cost moved most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .summary import TraceSummary, summarize_trace

__all__ = [
    "DEFAULT_COMPARE_THRESHOLD",
    "TraceComparison",
    "TraceDigest",
    "compare_traces",
    "diff_phases",
]

#: Relative delta above which a gating metric fails the comparison.
DEFAULT_COMPARE_THRESHOLD = 0.10

#: Overhead categories whose deltas the attribution step tries to
#: explain with cluster-dynamics deltas.  HELLO is excluded: in both
#: hello modes its rate follows link churn / the beacon period, not
#: cluster-maintenance events.
_ATTRIBUTABLE = ("cluster", "route")

#: Dynamics metrics that can carry an attribution (rate-like, causally
#: upstream of CLUSTER/ROUTE traffic in the paper's model).
_DYNAMICS_CAUSES = (
    ("head_change_rate", "head-change rate"),
    ("reaffiliation_rate", "reaffiliation rate"),
)


def _finite(value) -> float | None:
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass
class TraceDigest:
    """Comparable metrics extracted from one trace file."""

    path: str
    runs: int = 0
    #: ``category -> `` mean per-node msg frequency across runs.
    rates: dict[str, float] = field(default_factory=dict)
    #: Cluster-dynamics aggregates (rates are per node per sim-time).
    dynamics: dict[str, float] = field(default_factory=dict)
    #: ``(category, cause) -> `` mean per-node msg frequency across
    #: runs, from the overhead-attribution ledger (empty for traces
    #: recorded before the ``attribution`` event existed).
    causes: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Adaptive-beaconing aggregates from the ``control_window`` series
    #: (beacon-weighted mean interval, mean staleness, beacons per node
    #: per sim-time); empty for non-adaptive runs.
    control: dict[str, float] = field(default_factory=dict)
    #: ``category -> `` every residual final verdict was OK.
    residuals: dict[str, bool] = field(default_factory=dict)
    #: Per-phase wall-clock seconds from ``resource_sample`` deltas.
    phases: dict[str, float] = field(default_factory=dict)
    #: Span totals (started / ended / links).
    spans: dict[str, int] = field(default_factory=dict)
    #: Fault-injection digest: ``inject:<kind>`` / ``clear:<kind>``
    #: event counts plus the announced ``loss_rate``; empty for
    #: unfaulted traces, so classic comparisons gain no rows.
    faults: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, path) -> "TraceDigest":
        """Digest the trace at ``path`` (raises like ``summarize_trace``)."""
        summary = summarize_trace(path)
        digest = cls(path=str(path), runs=len(summary.runs))
        digest.spans = summary.spans

        rate_sums: dict[str, list[float]] = {}
        for run in summary.runs.values():
            frequencies = run.frequencies()
            if not frequencies:
                continue
            for category, rate in frequencies.items():
                rate_sums.setdefault(category, []).append(rate)
        digest.rates = _means(rate_sums)

        loss_rate = None
        for run in summary.runs.values():
            for category, final in run.residual_finals.items():
                digest.residuals[category] = digest.residuals.get(
                    category, True
                ) and bool(final.get("ok", True))
            counts, run_loss_rate = run.fault_counts()
            for (kind, verb), count in counts.items():
                key = f"{verb}:{kind}"
                digest.faults[key] = digest.faults.get(key, 0.0) + count
            if run_loss_rate is not None:
                loss_rate = run_loss_rate
        if loss_rate is not None:
            digest.faults["loss_rate"] = loss_rate
        digest.phases = summary.phase_totals()
        digest.dynamics = _dynamics_aggregates(summary)
        digest.control = _control_aggregates(summary)
        digest.causes = _cause_rates(summary)
        return digest


def _window_span(windows: list[dict]) -> float:
    """Simulated time covered by a non-empty window series."""
    return float(windows[-1]["t"]) - float(
        windows[0].get("window_start", windows[0]["t"])
    )


def _dynamics_aggregates(summary: TraceSummary) -> dict:
    """Per-node-per-time dynamics rates, averaged across runs."""
    per_sim: dict[str, list[float]] = {}
    all_clusters: list[float] = []
    for run in summary.runs_with("cluster_windows"):
        records = run.cluster_windows
        observed = _window_span(records)
        all_clusters.extend(float(w.get("clusters", 0)) for w in records)
        if not run.n_nodes or observed <= 0.0:
            continue
        scale = run.n_nodes * observed
        totals = run.window_totals()
        for name, total in (
            ("head_change_rate", totals["head_changes"]),
            ("reaffiliation_rate", totals["reaffiliations"]),
            ("gateway_churn_rate", totals["gateway_churn"]),
        ):
            per_sim.setdefault(name, []).append(total / scale)
        tenure = _finite(records[-1].get("mean_head_tenure"))
        if tenure is not None:
            per_sim.setdefault("mean_head_tenure", []).append(tenure)
        diameter = _finite(records[-1].get("mean_diameter"))
        if diameter is not None:
            per_sim.setdefault("mean_diameter", []).append(diameter)
    aggregates = _means(per_sim)
    if all_clusters:
        aggregates["mean_clusters"] = sum(all_clusters) / len(all_clusters)
    return aggregates


def _control_aggregates(summary: TraceSummary) -> dict:
    """Adaptive-beaconing aggregates, averaged across runs."""
    per_sim: dict[str, list[float]] = {}
    for run in summary.runs_with("control_windows"):
        beacons, mean_interval, mean_staleness = run.control_totals()
        if mean_interval is not None:
            per_sim.setdefault("mean_interval", []).append(mean_interval)
        if mean_staleness is not None:
            per_sim.setdefault("mean_staleness", []).append(mean_staleness)
        observed = _window_span(run.control_windows)
        if run.n_nodes and observed > 0.0:
            per_sim.setdefault("beacon_rate", []).append(
                beacons / (run.n_nodes * observed)
            )
    return _means(per_sim)


def _means(per_sim: dict[str, list[float]]) -> dict[str, float]:
    return {
        name: sum(values) / len(values)
        for name, values in sorted(per_sim.items())
        if values
    }


def _cause_rates(summary: TraceSummary) -> dict:
    """Per-(category, cause) per-node-per-time rates across runs.

    A cause absent from one run counts as rate zero there, so the
    averages stay comparable between digests with different cause sets.
    """
    per_run: list[dict[tuple[str, str], float]] = []
    for run in summary.runs_with("attribution"):
        if not run.n_nodes or not run.measured_time:
            continue
        scale = run.n_nodes * run.measured_time
        causes = run.attribution.get("causes", {})
        per_run.append(
            {
                (category, cause): tally["messages"] / scale
                for category, breakdown in causes.items()
                for cause, tally in breakdown.items()
            }
        )
    if not per_run:
        return {}
    keys = sorted(set().union(*per_run))
    return {
        key: sum(rates.get(key, 0.0) for rates in per_run) / len(per_run)
        for key in keys
    }


@dataclass
class ComparisonRow:
    """One diffed metric."""

    metric: str
    a: float | None
    b: float | None
    gating: bool

    @property
    def delta(self) -> float | None:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def rel(self) -> float | None:
        """Relative delta vs ``a`` (``None`` when undefined; a change
        from exactly zero is reported as ``inf``)."""
        if self.a is None or self.b is None:
            return None
        if self.a == 0.0:
            return 0.0 if self.b == 0.0 else math.inf
        return (self.b - self.a) / abs(self.a)


@dataclass
class TraceComparison:
    """The full diff of two trace digests."""

    a: TraceDigest
    b: TraceDigest
    threshold: float
    rows: list[ComparisonRow] = field(default_factory=list)
    verdict_changes: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def exceeding(self) -> list[ComparisonRow]:
        """Gating rows whose relative delta exceeds the threshold."""
        found = []
        for row in self.rows:
            if not row.gating:
                continue
            rel = row.rel
            if rel is not None and abs(rel) > self.threshold:
                found.append(row)
        return found

    @property
    def within_threshold(self) -> bool:
        """The CLI's exit-0 condition."""
        return not self.exceeding() and not self.verdict_changes

    def attributions(self) -> list[str]:
        """Overhead deltas explained down to their causes.

        Two levels.  For each attributable overhead category whose rate
        moved beyond the threshold, name the cluster-dynamics rates
        that moved with it (the paper's causal account of CLUSTER/ROUTE
        overhead).  Then, when both traces carry overhead-attribution
        ledgers, decompose *every* category's delta into exact
        per-cause contributions — e.g. a +12% cluster rate arriving as
        "head-merge-cascade +9.0%, reaffiliation +3.0%" — expressed as
        shares of A's category rate so they sum to the row's relative
        delta.
        """
        by_metric = {row.metric: row for row in self.rows}
        lines = []
        for category in _ATTRIBUTABLE:
            row = by_metric.get(f"rate:{category}")
            if row is None or row.rel is None:
                continue
            if abs(row.rel) <= self.threshold:
                continue
            causes = []
            for key, label in _DYNAMICS_CAUSES:
                cause = by_metric.get(f"dynamics:{key}")
                if cause is None or cause.rel is None:
                    continue
                if abs(cause.rel) > self.threshold and (
                    (cause.rel > 0) == (row.rel > 0)
                ):
                    causes.append(f"{label} {_fmt_rel(cause.rel)}")
            if causes:
                lines.append(
                    f"{category} rate {_fmt_rel(row.rel)} attributed to: "
                    + ", ".join(causes)
                )
            else:
                lines.append(
                    f"{category} rate {_fmt_rel(row.rel)}: no "
                    "cluster-dynamics delta moved with it (unattributed)"
                )
        lines.extend(self._cause_attributions(by_metric))
        return lines

    def _cause_attributions(self, by_metric: dict) -> list[str]:
        """Per-cause decomposition of every exceeding category delta."""
        keys = set(self.a.causes) | set(self.b.causes)
        lines = []
        for category in sorted({category for category, _cause in keys}):
            row = by_metric.get(f"rate:{category}")
            if row is None or row.rel is None or not row.a:
                continue
            if abs(row.rel) <= self.threshold:
                continue
            contributions = []
            for cause in sorted(
                {c for cat, c in keys if cat == category}
            ):
                key = (category, cause)
                delta = self.b.causes.get(key, 0.0) - self.a.causes.get(
                    key, 0.0
                )
                share = delta / abs(row.a)
                if abs(share) >= 0.005:  # hide sub-half-percent noise
                    contributions.append(
                        (abs(share), f"{cause} {_fmt_rel(share)}")
                    )
            if contributions:
                contributions.sort(reverse=True)
                lines.append(
                    f"{category} rate {_fmt_rel(row.rel)} by cause: "
                    + ", ".join(text for _size, text in contributions)
                )
        return lines

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "a": self.a.path,
            "b": self.b.path,
            "threshold": self.threshold,
            "rows": [
                {
                    "metric": row.metric,
                    "a": row.a,
                    "b": row.b,
                    "delta": row.delta,
                    "rel": None
                    if row.rel is None or not math.isfinite(row.rel)
                    else row.rel,
                    "gating": row.gating,
                }
                for row in self.rows
            ],
            "verdict_changes": list(self.verdict_changes),
            "attributions": self.attributions(),
            "within_threshold": self.within_threshold,
        }

    def render(self) -> str:
        """Human-readable comparison."""
        lines = [
            f"comparing  A: {self.a.path}",
            f"           B: {self.b.path}",
            f"  {'metric':32s} {'A':>12s} {'B':>12s} "
            f"{'delta':>12s} {'rel':>8s}",
        ]
        for row in self.rows:
            marker = ""
            rel = row.rel
            if (
                row.gating
                and rel is not None
                and abs(rel) > self.threshold
            ):
                marker = "  <-- exceeds threshold"
            lines.append(
                f"  {row.metric:32s} {_fmt(row.a):>12s} {_fmt(row.b):>12s} "
                f"{_fmt(row.delta):>12s} {_fmt_rel(rel):>8s}{marker}"
            )
        for change in self.verdict_changes:
            lines.append(f"  residual verdict changed: {change}")
        attributions = self.attributions()
        if attributions:
            lines.append("attribution:")
            lines.extend(f"  {line}" for line in attributions)
        if self.within_threshold:
            lines.append(
                f"verdict: WITHIN THRESHOLD ({self.threshold:.0%})"
            )
        else:
            lines.append(
                f"verdict: EXCEEDS THRESHOLD ({self.threshold:.0%})"
            )
        return "\n".join(lines)


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return format(value, ".4g")


def _fmt_rel(rel: float | None) -> str:
    if rel is None:
        return "-"
    if math.isinf(rel):
        return "+inf" if rel > 0 else "-inf"
    return f"{rel:+.1%}"


#: Dynamics rows that gate (the rest are informational structure).
_GATING_DYNAMICS = frozenset(
    ("head_change_rate", "reaffiliation_rate", "gateway_churn_rate")
)


def _diff(prefix, left, right, gating=(), names=None) -> list[ComparisonRow]:
    """One row per metric name (sorted, unless ``names`` is given);
    ``gating`` holds the gating names, or is ``True`` for all."""
    return [
        ComparisonRow(
            metric=f"{prefix}:{name}",
            a=left.get(name),
            b=right.get(name),
            gating=gating is True or name in gating,
        )
        for name in names or sorted(set(left) | set(right))
    ]


def compare_traces(
    path_a,
    path_b,
    threshold: float = DEFAULT_COMPARE_THRESHOLD,
) -> TraceComparison:
    """Digest and diff two traces (raises like ``summarize_trace``)."""
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    a = TraceDigest.from_trace(path_a)
    b = TraceDigest.from_trace(path_b)
    spans_a, spans_b = (
        {name: float(count) for name, count in digest.spans.items()}
        for digest in (a, b)
    )
    comparison = TraceComparison(
        a=a,
        b=b,
        threshold=threshold,
        rows=[
            *_diff("rate", a.rates, b.rates, gating=True),
            *_diff("dynamics", a.dynamics, b.dynamics, _GATING_DYNAMICS),
            *_diff("control", a.control, b.control),
            *_diff("phase", a.phases, b.phases),
            *_diff("spans", spans_a, spans_b, names=("started", "links")),
            # Fault digests are informational: a fault plan is part of
            # the run's configuration, so differing schedules are
            # expected when comparing faulted vs unfaulted twins — the
            # gate should fire on the *consequences* (rates, dynamics),
            # not the plan itself.
            *_diff("fault", a.faults, b.faults),
        ],
    )
    for category in sorted(set(a.residuals) | set(b.residuals)):
        verdict_a = a.residuals.get(category)
        verdict_b = b.residuals.get(category)
        if verdict_a is not None and verdict_b is not None and (
            verdict_a != verdict_b
        ):
            comparison.verdict_changes.append(
                f"{category}: {'OK' if verdict_a else 'BELOW BOUND'} -> "
                f"{'OK' if verdict_b else 'BELOW BOUND'}"
            )
    return comparison


# ----------------------------------------------------------------------
# Phase-delta attribution (shared with bench --history)
# ----------------------------------------------------------------------
def diff_phases(
    phases_a: dict[str, float],
    phases_b: dict[str, float],
    top: int = 4,
) -> list[str]:
    """Attribution lines for the phases whose cost moved most, B vs A.

    Inputs are per-phase costs in comparable units (e.g. seconds per
    step); output lines read ``adjacency: 0.8 -> 1.9 (+138%)``, sorted
    by absolute delta, largest first.  Used by the bench-history gate
    so a steps/sec regression arrives with its likely cause attached.
    """
    deltas = []
    for phase in sorted(set(phases_a) | set(phases_b)):
        before = float(phases_a.get(phase, 0.0))
        after = float(phases_b.get(phase, 0.0))
        if before == 0.0 and after == 0.0:
            continue
        rel = (after - before) / before if before > 0.0 else math.inf
        deltas.append((abs(after - before), phase, before, after, rel))
    deltas.sort(reverse=True)
    return [
        f"{phase}: {before:.4g} -> {after:.4g} ({_fmt_rel(rel)})"
        for _size, phase, before, after, rel in deltas[:top]
    ]
