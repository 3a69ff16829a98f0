"""Full-stack benchmark of the clustered-MANET simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload control-n2000 --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric, measured with the
benchmark's tracing off; with ``--trace 1`` it runs the traced variant
and prints every per-layer metric plus each layer's share of the traced
wall time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
checkout has no program to measure.

Each run starts fresh interpreters: three that only set up (``import
repro.cli`` and stack assembly, up to the first step) and one that sets
up and then runs the workload body for ``--seconds``.  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from aggregate import END_TO_END, summarize
from layers import SELF_TIME_LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only trials per run; ``setup_s`` is their median.
SETUP_TRIALS = 3
TRIAL_TIMEOUT_S = 170


def _trial(args: list[str], env: dict) -> dict:
    """Run one trial in a fresh interpreter and parse its result line."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "trial.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"trial {args} timed out")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"trial {args} exited with {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _print_layers(trial: dict) -> None:
    """Each layer's self time and share of the traced wall time."""
    layered = [b for b in trial["bodies"] if "self_times" in b]
    if not layered:
        return
    body = layered[0]
    wall = body["wall_s"]
    print(f"layer self time, first traced body (wall {wall:.4f} s):")
    for layer in (*SELF_TIME_LAYERS, "unattributed"):
        seconds = body["self_times"][layer]
        if seconds or layer == "unattributed":
            print(f"  {layer:28s} {seconds:10.4f} s {seconds / wall:8.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit that runs the clean-up below, which stops
    # the running trial and its worker processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}",
              file=sys.stderr)
        return 2
    # The "build": byte-compile once, so the first run's set-up time is
    # not inflated by compiling every module.
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    env = dict(os.environ, PYTHONPATH=str(src))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = [args.workload, str(args.seed)]
    mode = "traced" if args.trace else "untraced"
    try:
        setups = [
            _trial([*common, "setup", "0", str(workdir)], env)
            for _ in range(SETUP_TRIALS)
        ]
        trial = _trial([*common, mode, str(args.seconds), str(workdir)], env)
    except (RuntimeError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    bodies = trial["bodies"]
    result, problems = summarize(setups, trial, traced=bool(args.trace))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} bodies, {result['failed']} failed")
    if args.trace:
        _print_layers(trial)
    else:
        setup = statistics.median(s["import_s"] + s["assemble_s"]
                                  for s in setups)
        wall = statistics.median(b["wall_s"] for b in bodies)
        kernel = statistics.median(b["calibration_s"] for b in bodies)
        after_setup = statistics.median(s["calibration_s"] for s in setups)
        print(f"  as measured on this host: setup {setup:.4f} s, body "
              f"{wall:.4f} s, calibration kernel {1e3 * after_setup:.4f} ms"
              f" after set-up and {1e3 * kernel:.4f} ms in the bodies")
    kinds = {name: kind for name, (_, kind) in END_TO_END.items()}
    for name, metric in result["metrics"].items():
        kind = kinds.get(name, "layer")
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:12s}"
              f" {kind}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
