"""Runs one workload in a fresh interpreter and prints its numbers as JSON.

``run.py`` starts this file once per benchmark run, so the sieve's
module-level base-prime cache and the allocator start cold for every
workload, and ``peak_rss_mb`` belongs to this workload alone.

With ``--trace 0`` every pass is untimed by tracing.  With ``--trace 1``
the loop alternates an untraced and a traced pass; the per-layer numbers
come from the traced passes, and the tracing overhead is the traced minus
the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = ROOT / ".perfbench"


def one_pass(workload, items, tracer):
    """Run every input once; returns the phase times and the outputs."""
    clock = workloads.Clock()
    outputs = []
    start = time.perf_counter()
    for item in items:
        try:
            outputs.append((item, workloads.run_item(workload, item, clock, tracer)))
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            outputs.append((item, None))
    return dict(clock.totals, wall_s=time.perf_counter() - start), outputs


def count_failures(workload, outputs, goldens) -> int:
    failed = 0
    for item, out in outputs:
        problems = ["raised"] if out is None else workloads.check(workload, item, out, goldens)
        if problems:
            failed += 1
            print(f"FAILED {workload} {item.label}: {problems}", file=sys.stderr)
    return failed


def run(workload, seed, seconds, trace, smoke=False):
    """The closed loop: passes until the next one would overrun ``seconds``.

    Outputs are checked between passes, outside the timed region and with
    the tracer's patches removed.
    """
    items = workloads.make_inputs(workload, seed, smoke)
    goldens = workloads.load_goldens(workload, smoke) if seed == 0 else None
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times, outputs = one_pass(workload, items, tracing.NullTracer())
        plain.append(times)
        failed += count_failures(workload, outputs, goldens)
        if tracer is not None:
            tracer.install()
            try:
                times, outputs = one_pass(workload, items, tracer)
            finally:
                tracer.restore()
            traced.append((times, tracer.take()))
            failed += count_failures(workload, outputs, goldens)
        del outputs
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    attempted = len(items) * (len(plain) + len(traced))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if tracer is None:
        result["metrics"], result["samples"] = end_to_end(plain)
    else:
        result["metrics"], result["samples"] = per_layer(plain, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracing.write(
            TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl", [spans for _, spans in traced]
        )
    return result


def _median(passes, key):
    return statistics.median(p.get(key, 0.0) for p in passes)


def end_to_end(passes):
    """Medians over the passes of the pass wall time and each command's time."""
    metrics = {name: _median(passes, name) for name in passes[0]}
    samples = dict.fromkeys(metrics, len(passes))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mb"] = 1
    return metrics, samples


def per_layer(plain, traced):
    per_pass = [tracing.layer_metrics(spans, times["wall_s"]) for times, spans in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(times["wall_s"] for times, _ in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median(plain, "wall_s")
    return metrics, dict.fromkeys(metrics, len(traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
