"""The benchmark binds prckit functions by name.

``perfbench/tracing.py`` wraps every ``(module, function)`` in its
``TARGETS``, and ``perfbench/workloads.py`` calls ``chain.X``, ``core.X``,
``explorer.X`` and ``radix.X``; a rename or deletion in prckit would only
surface when the benchmark runs.  These tests load the tracer by path and
read the workloads' source, and check that every name still resolves.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
MODULES = ("chain", "core", "explorer", "radix")


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, func_name, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(target), f"{module_name}.{func_name}"


def test_workload_references_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
    assert {module for module, _ in refs} == set(MODULES)
    for module_name, name in sorted(refs):
        module = importlib.import_module(f"prckit.{module_name}")
        assert hasattr(module, name), f"prckit.{module_name}.{name}"
