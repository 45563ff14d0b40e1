"""The benchmark's tracer binds prckit functions by name.

``perfbench/tracing.py`` wraps every ``(module, function)`` in its
``TARGETS``; a rename or deletion in prckit would only surface when the
benchmark runs.  This test loads the tracer by path and checks that every
target still resolves to a callable.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, func_name, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(target), f"{module_name}.{func_name}"
