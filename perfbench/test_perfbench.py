"""Tests of the benchmark itself, on its tiny ``--smoke`` inputs.

    python3 -m pytest perfbench

They stay out of the repository's tier-1 run (pytest's ``testpaths`` does
not include this directory), so benchmark timing can never flake it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from prckit import chain, explorer, radix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = _run("--workload=all", "--seed=0", "--seconds=0.2", f"--trace={trace}", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == set(workloads.WORKLOADS)
    for result in final.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: (metric["unit"], isinstance(metric["value"], (int, float)))
            for name, metric in result["metrics"].items()
        } == {m["name"]: (m["unit"], True) for m in SPEC[kind]}
    for metric in SPEC[kind]:
        printed = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(workloads.WORKLOADS)
        assert all(row[2] == metric["unit"] and row[3].startswith("n=") for row in printed)


def _corrupt_digits(monkeypatch):
    original = radix.prc_digits

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        last = "1" if result.digits[-1] != "1" else "2"
        return dataclasses.replace(result, digits=result.digits[:-1] + last)

    monkeypatch.setattr(radix, "prc_digits", wrong)


def _corrupt_chain(monkeypatch):
    original = chain.build_chain

    def wrong(*args, **kwargs):
        built = original(*args, **kwargs)
        return dataclasses.replace(built, primes=built.primes[:-1] + (built.primes[-1] + 2,))

    monkeypatch.setattr(chain, "build_chain", wrong)


def _corrupt_export(monkeypatch):
    original = explorer.forest_to_csv
    monkeypatch.setattr(explorer, "forest_to_csv", lambda forest: original(forest) + "x\n")


@pytest.mark.parametrize(
    "workload,corrupt",
    [("digits", _corrupt_digits), ("mills", _corrupt_chain), ("explore", _corrupt_export)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_corrupted_output_fails_the_run(monkeypatch, workload, corrupt, seed):
    corrupt(monkeypatch)
    result = worker.run(workload, seed, 0.1, trace=0, smoke=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    args = [f"--workload={workload}", f"--seed={seed}", "--seconds=0.1", "--trace=0", "--smoke"]
    assert worker.main(args) == 1


def test_uncorrupted_smoke_runs_pass_with_seeds_other_than_zero():
    for workload in workloads.WORKLOADS:
        result = worker.run(workload, 7, 0.1, trace=0, smoke=True)
        assert result["correct"] and result["failed"] == 0


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        for seed in range(6):
            assert workloads.make_inputs(workload, seed) == workloads.make_inputs(workload, seed)
    drawn = {workloads.make_inputs("mills", seed) for seed in range(1, 40)}
    assert len(drawn) > 1
    assert workloads.make_inputs("mills", 0) not in drawn


def test_tracer_restores_every_patched_binding():
    import prckit

    modules = [importlib.import_module(m) for m in tracing.PRCKIT_MODULES]
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer = tracing.Tracer()
    tracer.install()
    assert prckit.chain.is_prime is prckit.primality.is_prime is prckit.is_prime
    assert prckit.chain.is_prime is not before["prckit.chain"]["is_prime"]
    tracer.restore()
    for name, namespace in before.items():
        assert dict(vars(sys.modules[name])) == namespace


def test_layer_metrics_count_recursive_roots_once():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        radix.nth_root_floor(7 ** 4000, 100)
    finally:
        tracer.restore()
    spans = tracer.take()
    assert len(spans) > 1  # the recursion was traced
    metrics = tracing.layer_metrics(spans, wall=1.0)
    assert metrics["radix.nth_root_floor.calls"] == 1
    assert metrics["radix.nth_root_floor.order_max"] == 100


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload=mills", "--seed=0", "--seconds=1", "--trace=0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
