"""Turn trial outputs into the benchmark's checked result.

Pure functions over the JSON the trials print, so the output checks
can be tested without running a simulation.
"""

from __future__ import annotations

import statistics

from calibrate import REFERENCE_S
from layers import COUNTS, LAYER_METRICS

__all__ = ["END_TO_END", "check_bodies", "summarize"]

#: name -> (unit, kind) of every end-to-end metric.  Host metrics
#: measure the simulator's run; simulated ones the modelled network.
END_TO_END = {
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "control_overhead_bps": ("bit/node/s", "simulated"),
    "delivery_ratio": ("1", "simulated"),
}


def check_bodies(bodies: list[dict]) -> tuple[int, list[str]]:
    """Count the bodies that fail an output check.

    Every body of one seed, traced or not, must produce the digest of
    the first body that passed its own checks, and every traced body the
    exact work counts of the first traced body.  A body's own failed checks (a strict audit that
    raised, a self-diff over threshold, ...) fail it too.
    """
    problems: list[str] = []
    failed = 0
    sound = [b for b in bodies if not b["problems"]]
    reference = sound[0]["digest"] if sound else None
    counts = next((b["counts"] for b in sound if "counts" in b), None)
    for index, body in enumerate(bodies):
        found = [f"body {index}: {p}" for p in body["problems"]]
        if body["digest"] != reference:
            found.append(
                f"body {index} ({body['mode']}): output digest "
                f"{body['digest']} != {reference}"
            )
        if "counts" in body and body["counts"] != counts:
            changed = sorted(
                k for k in COUNTS if body["counts"].get(k) != counts.get(k)
            )
            found.append(f"body {index}: work counts changed: {changed}")
        if found:
            failed += 1
            problems.extend(found)
    return failed, problems


def _median(values) -> float:
    """Median, or 0 when a failed run left no sample (it is not correct)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def summarize(setups: list[dict], trial: dict, traced: bool):
    """The result object and the problems found, from one run's trials.

    ``setups`` are set-up samples (``import_s``, ``assemble_s`` and the
    kernel time ``calibration_s`` right after them, each from a fresh
    interpreter); ``trial`` is the measuring trial.  Times are reported
    in reference-host seconds (see :mod:`calibrate`): each body by the
    kernel timed while it ran, each set-up by the kernel timed after it.
    """
    bodies = trial["bodies"]
    failed, problems = check_bodies(bodies)
    if traced:
        layered = [b for b in bodies if "metrics" in b]
        values = {
            "setup.import_s": _median(s["import_s"] for s in setups),
            "setup.assemble_s": _median(s["assemble_s"] for s in setups),
        }
        for name in LAYER_METRICS:
            if name not in values:
                values[name] = _median(b["metrics"][name] for b in layered)
        units = LAYER_METRICS
    else:
        sound = [b for b in bodies if not b["problems"]]
        first = sound[0] if sound else bodies[0]
        values = {
            "setup_s": _median(
                (s["import_s"] + s["assemble_s"]) * REFERENCE_S
                / s["calibration_s"] for s in setups
            ),
            "wall_s": _median(
                b["wall_s"] * REFERENCE_S / b["calibration_s"] for b in sound
            ),
            "peak_rss_mb": trial["peak_rss_mb"],
            "control_overhead_bps": first["overhead_bps"],
            "delivery_ratio": first["delivery_ratio"],
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(bodies),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    return result, problems
