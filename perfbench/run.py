"""prckit benchmark.

    python3 perfbench/run.py --workload {mills,digits,explore,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; prckit is imported from ``src``.
Each workload runs in a fresh interpreter (``worker.py``).  Set-up time and
CLI start-up are timed in fresh interpreters of their own, five times before
and five times after the workload (the median of the ten is reported), so
the timed region holds the workload alone.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The lines before it print the same numbers for people, with
sample counts.  The exit code is 0 only when every output was correct.
``--smoke`` swaps in tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mills", "digits", "explore")
FRESH_REPEATS = 5  # before and again after the workload, so 10 samples in all
FRESH_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_seconds(args: list[str], repeats: int = FRESH_REPEATS) -> list[float]:
    """Wall times of ``python3 <args>``, each in a fresh interpreter.

    ``wait()`` without a timeout blocks in waitpid; with one, CPython polls
    in sleeps of up to 50 ms, which would quantize the times.  A timer kills
    a child that hangs instead.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL
        )
        watchdog = threading.Timer(FRESH_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, [sys.executable, *args])
    return times


def run_workload(workload, seed, seconds, trace, smoke, spec) -> dict:
    # A first import compiles the bytecode cache, so the timed ones do not.
    fresh_seconds(["-c", "import prckit, prckit.cli"], repeats=1)
    if trace:
        name, args = "cli.startup_s", ["-m", "prckit.cli", "--version"]
    else:
        name, args = "setup_s", ["-c", "import prckit, prckit.cli"]
    startup = fresh_seconds(args)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    startup += fresh_seconds(args)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    measured = dict(result.pop("metrics"), **{name: statistics.median(startup)})
    wanted = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }
    result["commands"] = {k: v for k, v in measured.items() if k not in result["metrics"]}
    result["samples"][name] = len(startup)
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    n = result["samples"]
    print(
        f"{workload}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:.4f}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:>16.6f} {metric['unit']:6s} n={n[name]}")
    for name, value in result["commands"].items():
        print(f"  {name:45s} {value:>16.6f} s      n={n[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prckit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no prckit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.trace, args.smoke, spec
            )
        except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
            print(f"run.py: {workload}: {exc!r}", file=sys.stderr)
            return 3
        report(workload, results[workload])
    final = {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()
    }
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
