"""Cross-run diffing: digests, threshold gating, attribution, CLI."""

from __future__ import annotations

import json

import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.cli import main
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs import JsonlTracer, TraceDigest, compare_traces, observe
from repro.obs.compare import ComparisonRow, diff_phases
from repro.sim import HelloProtocol, Simulation


def _write_trace(path, *, seed, velocity_fraction=0.05, duration=4.0):
    params = NetworkParameters.from_fractions(
        n_nodes=60,
        range_fraction=0.22,
        velocity_fraction=velocity_fraction,
    )
    with JsonlTracer(path, step_every=5) as tracer:
        with observe(tracer=tracer):
            sim = Simulation(
                params,
                EpochRandomWaypointModel(params.velocity, epoch=1.0),
                seed=seed,
                tracer=tracer,
            )
            sim.attach(HelloProtocol(mode="event"))
            maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
            sim.attach(maintenance)
            from repro.clustering import attach_cluster_dynamics

            attach_cluster_dynamics(sim, maintenance)
            sim.run(duration=duration, warmup=1.0)
    return path


@pytest.fixture
def trace_a(tmp_path):
    return _write_trace(tmp_path / "a.jsonl", seed=1)


@pytest.fixture
def trace_b(tmp_path):
    # Much faster nodes: more churn, higher maintenance rates.
    return _write_trace(
        tmp_path / "b.jsonl", seed=2, velocity_fraction=0.45
    )


class TestTraceDigest:
    def test_digest_has_rates_and_dynamics(self, trace_a):
        digest = TraceDigest.from_trace(trace_a)
        assert digest.runs == 1
        assert {"cluster", "hello"} <= set(digest.rates)
        assert "head_change_rate" in digest.dynamics
        assert "reaffiliation_rate" in digest.dynamics
        assert digest.spans["started"] == digest.spans["ended"] > 0


class TestCompareTraces:
    def test_self_compare_is_zero_and_within(self, trace_a):
        comparison = compare_traces(trace_a, trace_a)
        assert comparison.within_threshold
        for row in comparison.rows:
            assert row.delta == 0.0
            assert row.rel == 0.0
        assert not comparison.verdict_changes

    def test_different_runs_exceed_and_attribute(self, trace_a, trace_b):
        comparison = compare_traces(trace_a, trace_b)
        assert not comparison.within_threshold
        exceeding = {row.metric for row in comparison.exceeding()}
        assert any(m.startswith("rate:") for m in exceeding)
        # Acceptance criterion: at least one overhead delta is
        # attributed to a cluster-dynamics delta.
        attributions = comparison.attributions()
        assert any("attributed to" in line for line in attributions)
        assert any(
            "head-change rate" in line or "reaffiliation rate" in line
            for line in attributions
        )

    def test_non_gating_rows_never_gate(self, trace_a, trace_b):
        comparison = compare_traces(trace_a, trace_b)
        for row in comparison.exceeding():
            assert row.gating
            assert not row.metric.startswith(("phase:", "spans:"))

    def test_rel_from_zero_is_inf(self):
        row = ComparisonRow(metric="x", a=0.0, b=1.0, gating=True)
        assert row.rel == float("inf")
        row = ComparisonRow(metric="x", a=0.0, b=0.0, gating=True)
        assert row.rel == 0.0

    def test_missing_side_gives_none_rel(self):
        row = ComparisonRow(metric="x", a=None, b=1.0, gating=True)
        assert row.rel is None and row.delta is None

    def test_threshold_validation(self, trace_a):
        with pytest.raises(ValueError):
            compare_traces(trace_a, trace_a, threshold=0.0)

    def test_to_dict_is_json_serializable(self, trace_a, trace_b):
        payload = compare_traces(trace_a, trace_b).to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["within_threshold"] is False

    def test_verdict_flip_fails_gate(self, tmp_path):
        def write(path, ok):
            records = [
                {"schema": 1, "event": "run_begin", "t": 0.0, "sim": 0,
                 "n_nodes": 10},
                {"schema": 1, "event": "residual", "t": 1.0, "sim": 0,
                 "kind": "final", "category": "cluster", "ok": ok},
                {"schema": 1, "event": "run_end", "t": 1.0, "sim": 0,
                 "measured_time": 1.0},
            ]
            path.write_text(
                "\n".join(json.dumps(r) for r in records) + "\n"
            )
            return path

        a = write(tmp_path / "ok.jsonl", True)
        b = write(tmp_path / "bad.jsonl", False)
        comparison = compare_traces(a, b)
        assert not comparison.within_threshold
        assert comparison.verdict_changes
        assert "cluster" in comparison.verdict_changes[0]


class TestSinglePass:
    """Every trace consumer reads each trace file exactly once."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Paths passed to ``read_trace``, through whichever module's
        binding of it the caller used."""
        import sys

        from repro.obs.summary import read_trace

        calls = []

        def counting(path):
            calls.append(str(path))
            return read_trace(path)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "read_trace", None) is read_trace
            ):
                monkeypatch.setattr(module, "read_trace", counting)
        return calls

    def test_summary_report_and_metrics_read_once(self, trace_a, reads):
        from repro.obs import build_report, registry_from_trace
        from repro.obs.summary import summarize_trace

        summarize_trace(trace_a)
        assert len(reads) == 1
        build_report([trace_a])
        assert len(reads) == 2
        registry_from_trace(trace_a)
        assert len(reads) == 3

    def test_compare_reads_each_side_once(self, trace_a, trace_b, reads):
        compare_traces(trace_a, trace_b)
        assert reads == [str(trace_a), str(trace_b)]


class TestDiffPhases:
    def test_sorted_by_absolute_delta(self):
        lines = diff_phases(
            {"adjacency": 1.0, "mobility": 0.5},
            {"adjacency": 3.0, "mobility": 0.6},
        )
        assert lines[0].startswith("adjacency:")
        assert "+200.0%" in lines[0]

    def test_new_phase_reports_inf(self):
        (line,) = diff_phases({}, {"new": 0.5})
        assert "+inf" in line

    def test_top_limits_output(self):
        phases_a = {f"p{i}": 1.0 for i in range(10)}
        phases_b = {f"p{i}": 2.0 + i for i in range(10)}
        assert len(diff_phases(phases_a, phases_b, top=3)) == 3

    def test_unchanged_zero_phases_dropped(self):
        assert diff_phases({"idle": 0.0}, {"idle": 0.0}) == []


class TestCompareCli:
    def test_self_compare_exits_zero(self, trace_a, capsys):
        code = main(["compare", str(trace_a), str(trace_a)])
        assert code == 0
        assert "WITHIN THRESHOLD" in capsys.readouterr().out

    def test_different_traces_exit_one(self, trace_a, trace_b, capsys):
        code = main(["compare", str(trace_a), str(trace_b)])
        assert code == 1
        out = capsys.readouterr().out
        assert "EXCEEDS THRESHOLD" in out
        assert "attributed to" in out

    def test_huge_threshold_passes(self, trace_a, trace_b):
        code = main(
            ["compare", str(trace_a), str(trace_b), "--threshold", "50"]
        )
        assert code == 0

    def test_missing_file_exits_two(self, trace_a, capsys):
        code = main(["compare", str(trace_a), "/nonexistent.jsonl"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_output(self, trace_a, capsys):
        code = main(["compare", str(trace_a), str(trace_a), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["within_threshold"] is True
        assert payload["rows"]


class TestTimelineCli:
    def test_timeline_roundtrip(self, trace_a, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["timeline", str(trace_a), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_timeline_missing_file_exits_two(self, capsys):
        code = main(["timeline", "/nonexistent.jsonl"])
        assert code == 2
