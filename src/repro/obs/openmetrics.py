"""OpenMetrics / Prometheus text-exposition export.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the
OpenMetrics text format (the Prometheus exposition format plus the
``# EOF`` terminator), so a run's counters — including the overhead
attribution ledger's ``overhead_*_total{cause, protocol, cluster}``
family — can be scraped, diffed, or pushed to a gateway::

    # HELP overhead_messages repro-manet metric overhead_messages_total.
    # TYPE overhead_messages counter
    overhead_messages_total{cause="reaffiliation",cluster="3",protocol="cluster",sim="0"} 30
    ...
    # EOF

Two sources feed the renderer:

* the **live registry** a run populated (``repro-manet run ...
  --metrics-openmetrics out.om``) — workers' registries are folded into
  the parent's by the parallel runner, so any ``--jobs`` value exports
  identical bytes;
* a **trace file** (``repro-manet metrics trace.jsonl``) — rebuilt by
  :func:`registry_from_trace` from ``run_end`` totals, ``attribution``
  events and the raw event counts, so the export needs nothing beyond
  the trace.

Family naming follows the Prometheus convention: a counter family is
announced without the ``_total`` suffix its samples carry.
"""

from __future__ import annotations

import math
from pathlib import Path

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "render_openmetrics",
    "registry_from_trace",
    "write_openmetrics",
]

#: Help strings for the families this package produces.
_HELP = {
    "messages": "Control messages recorded, by category.",
    "bits": "Control-message bits recorded, by category.",
    "overhead_messages": (
        "Attributed control messages, by root cause, protocol "
        "(category) and cluster."
    ),
    "overhead_bits": (
        "Attributed control-message bits, by root cause, protocol "
        "(category) and cluster."
    ),
    "overhead_node_messages": "Attributed control messages, by node.",
    "overhead_node_bits": "Attributed control-message bits, by node.",
    "trace_events": "Trace records read, by event type.",
    "measured_time": "Measured simulated time of the run.",
    "cache_hits": "Result-store hits.",
    "cache_misses": "Result-store misses.",
    "cache_writes": "Result-store records written.",
    "worker_chunk_size": "Tasks per worker chunk of the last parallel run.",
}


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{key}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + parts + "}"


def _value_text(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _family_name(metric) -> str:
    name = metric.name
    if isinstance(metric, Counter) and name.endswith("_total"):
        return name[: -len("_total")]
    return name


def _help_line(family: str) -> str:
    text = _HELP.get(family, f"repro-manet metric {family}.")
    return f"# HELP {family} {_escape(text)}"


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render every instrument of ``registry`` as OpenMetrics text.

    Families keep registry registration order; samples within a family
    are sorted by label set, so the output is deterministic for a
    deterministic registry (which the parallel runner's fold
    guarantees).
    """
    families: dict[str, list] = {}
    for metric in registry.collect():
        families.setdefault(_family_name(metric), []).append(metric)

    lines: list[str] = []
    for family, metrics in families.items():
        kind = metrics[0]
        lines.append(_help_line(family))
        if isinstance(kind, Counter):
            lines.append(f"# TYPE {family} counter")
            for metric in sorted(metrics, key=lambda m: sorted(m.labels.items())):
                lines.append(
                    f"{family}_total{_label_text(metric.labels)} "
                    f"{_value_text(metric.value)}"
                )
        elif isinstance(kind, Gauge):
            lines.append(f"# TYPE {family} gauge")
            for metric in sorted(metrics, key=lambda m: sorted(m.labels.items())):
                lines.append(
                    f"{family}{_label_text(metric.labels)} "
                    f"{_value_text(metric.value)}"
                )
        elif isinstance(kind, Histogram):
            lines.append(f"# TYPE {family} histogram")
            for metric in sorted(metrics, key=lambda m: sorted(m.labels.items())):
                cumulative = 0
                for bound, count in zip(
                    tuple(metric.bounds) + (float("inf"),),
                    metric.bucket_counts,
                ):
                    cumulative += count
                    labels = dict(metric.labels)
                    labels["le"] = _value_text(bound) if math.isfinite(
                        bound
                    ) else "+Inf"
                    lines.append(
                        f"{family}_bucket{_label_text(labels)} {cumulative}"
                    )
                base = _label_text(metric.labels)
                lines.append(f"{family}_count{base} {metric.count}")
                lines.append(f"{family}_sum{base} {_value_text(metric.sum)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def registry_from_trace(path) -> MetricsRegistry:
    """Rebuild a metrics registry from a trace file.

    Produces the same counter families a live traced run populates:
    ``messages_total`` / ``bits_total`` per category (from ``run_end``
    totals), the attribution ``overhead_*_total`` cross-product (from
    ``attribution`` events' ``cells``), per-node attribution counters,
    per-run ``measured_time`` gauges, and ``trace_events_total`` counts
    of every record type read.
    """
    from .summary import summarize_trace

    summary = summarize_trace(path)
    registry = MetricsRegistry()
    for event, count in summary.event_counts.items():
        registry.counter("trace_events_total", event=event).inc(count)
    # Families register in first-seen order, which ``render_openmetrics``
    # keeps: replay each run's ledger, then its ``run_end``, the order
    # the engine emits them.
    for run in summary.runs.values():
        sim = str(run.sim)
        if run.attribution is not None:
            for category, cause, cluster, messages, bits in (
                run.attribution.get("cells", [])
            ):
                labels = {
                    "cause": cause,
                    "protocol": category,
                    "cluster": str(cluster),
                    "sim": sim,
                }
                registry.counter(
                    "overhead_messages_total", **labels
                ).inc(messages)
                registry.counter("overhead_bits_total", **labels).inc(bits)
            for node, tally in run.attribution.get("nodes", {}).items():
                registry.counter(
                    "overhead_node_messages_total", node=node, sim=sim
                ).inc(tally["messages"])
                registry.counter(
                    "overhead_node_bits_total", node=node, sim=sim
                ).inc(tally["bits"])
        if run.measured_time is not None:
            registry.gauge("measured_time", sim=sim).set(run.measured_time)
            for category, totals in sorted(
                (run.reported_totals or {}).items()
            ):
                registry.counter(
                    "messages_total", category=category, sim=sim
                ).inc(totals["messages"])
                registry.counter(
                    "bits_total", category=category, sim=sim
                ).inc(totals["bits"])
    return registry


def write_openmetrics(registry: MetricsRegistry, path) -> None:
    """Write ``registry`` to ``path`` in OpenMetrics text format."""
    Path(path).write_text(render_openmetrics(registry), encoding="utf-8")
