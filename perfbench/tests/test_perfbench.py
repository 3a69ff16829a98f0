"""The benchmark's own tests, on tiny workloads.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import gc
import json
import shutil
import statistics
import subprocess
import sys

import pytest

import aggregate
import calibrate
import layers
import trial
from conftest import BENCH
from workloads import WORKLOADS

TINY = {
    "control-n2000": {"n_nodes": 60, "duration": 0.3, "warmup": 0.1},
    "data-n500": {"n_nodes": 60, "duration": 0.4, "warmup": 0.1},
    "sweep-v-n400": {"n_nodes": 40, "duration": 0.2, "warmup": 0.05,
                     "points": 3, "seeds": 1, "jobs": 1},
    "chaos-traced-n1000": {"n_nodes": 80, "duration": 0.5, "warmup": 0.1},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def run_cycles(name, mode, tmp_path, seed=1, cycles=2):
    workload = tiny(name)
    bodies = []
    for _ in range(cycles):
        bodies.extend(trial._cycle(workload, seed, tmp_path, mode))
    return {"import_s": 0.5, "peak_rss_mb": 100.0, "bodies": bodies}


def summarize(out, traced, after_setup=calibrate.REFERENCE_S):
    setups = [{"import_s": out["import_s"],
               "assemble_s": out["bodies"][0]["assemble_s"],
               "calibration_s": after_setup}]
    return aggregate.summarize(setups, out, traced=traced)


def declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_declared_metrics_match_the_code():
    end_to_end, per_layer = declared()
    assert end_to_end == {n: u for n, (u, _) in aggregate.END_TO_END.items()}
    assert per_layer == layers.LAYER_METRICS


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_reported_with_its_unit(name, traced, tmp_path):
    out = run_cycles(name, "traced" if traced else "untraced", tmp_path)
    result, problems = summarize(out, traced)
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    expected = declared()[1 if traced else 0]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(value, float) for value in values)
    if traced:
        body = next(b for b in out["bodies"] if "self_times" in b)
        # The layers partition the traced wall time.
        partition = sum(body["self_times"].values())
        assert partition == pytest.approx(body["wall_s"])
        assert set(body["counts"]) == set(layers.COUNTS)
    else:
        assert all(value > 0 for value in values)


def test_tampered_digest_is_a_failed_operation(tmp_path):
    out = run_cycles("data-n500", "untraced", tmp_path, cycles=3)
    assert summarize(out, traced=False)[0]["failed"] == 0
    out["bodies"][1]["digest"] = "0" * 16
    result, problems = summarize(out, traced=False)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == 3
    assert any("digest" in p for p in problems)


def test_run_with_no_sound_body_still_reports(tmp_path):
    out = run_cycles("control-n2000", "untraced", tmp_path)
    for body in out["bodies"]:
        body["problems"] = ["strict audit raised: P1"]
    result, problems = summarize(out, traced=False)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert set(result["metrics"]) == set(declared()[0])


@pytest.mark.parametrize("traced", [False, True])
def test_body_that_raises_is_a_failed_operation(traced, tmp_path,
                                                monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("crash in run_scenario")

    monkeypatch.setattr(type(tiny("control-n2000")), "run", crash)
    out = run_cycles("control-n2000", "traced" if traced else "untraced",
                     tmp_path, cycles=1)
    result, problems = summarize(out, traced)
    assert result["failed"] == result["attempted"] == len(out["bodies"])
    assert not result["correct"]
    assert any("raised: RuntimeError" in p for p in problems)
    assert set(result["metrics"]) == set(declared()[1 if traced else 0])


@pytest.mark.parametrize("name", ["control-n2000", "sweep-v-n400"])
def test_traced_run_compares_two_traced_bodies(name, tmp_path):
    bodies = trial.measure(tiny(name), 1, tmp_path, "traced", budget=0.0)
    assert len([b for b in bodies if "counts" in b]) == 2
    assert len(trial.measure(tiny(name), 1, tmp_path, "untraced", 0.0)) >= 1


def test_changed_work_count_is_a_failed_operation(tmp_path):
    out = run_cycles("control-n2000", "traced", tmp_path)
    traced = [b for b in out["bodies"] if "counts" in b]
    traced[-1]["counts"]["spatial.link_events"] += 1
    result, problems = summarize(out, traced=True)
    assert result["failed"] == 1
    assert any("spatial.link_events" in p for p in problems)


def test_seed_changes_flows_but_not_metrics(tmp_path):
    workload = tiny("data-n500")
    assert workload.inputs(1)[0]["flows"] != workload.inputs(2)[0]["flows"]
    assert workload.inputs(1) == workload.inputs(1)
    one = summarize(run_cycles("data-n500", "untraced", tmp_path, 1), False)
    two = summarize(run_cycles("data-n500", "untraced", tmp_path, 2), False)
    assert set(one[0]["metrics"]) == set(two[0]["metrics"])


def test_times_are_rescaled_to_the_reference_host(tmp_path):
    out = run_cycles("control-n2000", "untraced", tmp_path)
    walls = [b["wall_s"] for b in out["bodies"]]
    assert all(b["calibration_s"] > 0 for b in out["bodies"])
    base = summarize(out, traced=False)[0]["metrics"]
    # A host twice as slow as the reference reports half its seconds.
    for body in out["bodies"]:
        body["calibration_s"] = 2 * calibrate.REFERENCE_S
    slow = summarize(out, traced=False,
                     after_setup=2 * calibrate.REFERENCE_S)[0]["metrics"]
    assert slow["wall_s"]["value"] == pytest.approx(
        0.5 * statistics.median(walls)
    )
    assert slow["setup_s"]["value"] == pytest.approx(
        0.5 * (out["import_s"] + out["bodies"][0]["assemble_s"])
    )
    assert base["control_overhead_bps"] == slow["control_overhead_bps"]


def test_calibration_does_not_absorb_garbage_collection(monkeypatch):
    # A collection that the kernel's allocations would trigger must run
    # later, in the program, and not inside the timed kernel.
    inside, during, after = [False], [], []
    kernel = calibrate._kernel

    def timed_kernel():
        inside[0] = True
        try:
            return kernel()
        finally:
            inside[0] = False

    def note(phase, info):
        if phase == "start":
            (during if inside[0] else after).append(info["generation"])

    monkeypatch.setattr(calibrate, "_kernel", timed_kernel)
    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        calibrate.sample()
        after.clear()
        [set() for _ in range(10)]
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert during == []
    assert after, "the deferred collection never ran"
    assert gc.isenabled()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "data-n500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
