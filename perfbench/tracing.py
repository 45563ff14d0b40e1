"""Span tracing for the traced benchmark run.

The tracer replaces each public prckit function named in ``TARGETS`` with a
wrapper that records one span per call, in every prckit module that binds
the function (so ``prckit.chain.is_prime`` and ``prckit.explorer.
primes_in_range`` are caught as well as the defining modules), and puts the
originals back on ``restore``.  Spans are kept in memory; ``layer_metrics``
turns one pass's spans into the per-layer numbers and ``write`` dumps them
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

PRCKIT_MODULES = (
    "prckit",
    "prckit.core",
    "prckit.primality",
    "prckit.radix",
    "prckit.chain",
    "prckit.explorer",
    "prckit.cli",
)


def _is_prime_attrs(attrs, args, result):
    attrs["bits"] = args[0].bit_length()
    attrs["prime"] = result.is_prime


def _sieve_attrs(attrs, args, result):
    attrs["width"] = max(args[1] - max(args[0], 2), 0)
    attrs["primes"] = len(result)


def _root_attrs(attrs, args, result):
    attrs["bits"] = args[0].bit_length()
    attrs["order"] = args[1]


def _forest_attrs(attrs, args, result):
    nodes, stack = 0, list(result.roots)
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children or ())
    attrs["nodes"] = nodes


# (module, function, annotate) for every public function the workloads reach
TARGETS = (
    ("prckit.primality", "is_prime", _is_prime_attrs),
    ("prckit.primality", "find_prime_in_range", None),
    ("prckit.primality", "min_prime_in_window", None),
    ("prckit.primality", "max_prime_in_window", None),
    ("prckit.primality", "primes_in_range", _sieve_attrs),
    ("prckit.radix", "nth_root_floor", _root_attrs),
    ("prckit.radix", "certified_root_enclosure", None),
    ("prckit.radix", "point_root_enclosure", None),
    ("prckit.radix", "prc_digits", None),
    ("prckit.chain", "build_chain", None),
    ("prckit.chain", "verify_chain", None),
    ("prckit.chain", "theta_window_report", None),
    ("prckit.chain", "convergence_bound_check", None),
    ("prckit.explorer", "explore_tree", _forest_attrs),
    ("prckit.explorer", "validate_forest", None),
    ("prckit.explorer", "branching_stats", None),
    ("prckit.explorer", "gap_intervals", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: benchmark-level spans cost one context manager."""

    @contextlib.contextmanager
    def span(self, name):
        yield {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a benchmark step that is not one prckit call."""
        span = self._open(name)
        try:
            yield span.attrs
        finally:
            self._close(span)

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span.attrs, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PRCKIT_MODULES]
        for module_name, func_name, annotate in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(f"{module_name[7:]}.{func_name}", original, annotate)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def write(path, passes) -> None:
    """Write each traced pass's spans as JSON lines (one span per line)."""
    with open(path, "w") as out:
        for number, spans in enumerate(passes):
            for span in spans:
                row = {
                    "pass": number,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                }
                row.update(span.attrs)
                out.write(json.dumps(row) + "\n")


SCANS = frozenset(
    {
        "primality.find_prime_in_range",
        "primality.min_prime_in_window",
        "primality.max_prime_in_window",
    }
)
RADIX = frozenset(
    {
        "radix.nth_root_floor",
        "radix.certified_root_enclosure",
        "radix.point_root_enclosure",
        "radix.prc_digits",
    }
)


def _under(spans, span, names) -> bool:
    """Does any ancestor of ``span`` carry one of ``names``?"""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Times are shares of the pass's wall time in percent; ``self`` excludes
    the time covered by child spans.  Recursive or nested calls of one layer
    count once, at their outermost span.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def pick(name, outermost_of=None):
        idx = by_name.get(name, [])
        if outermost_of:
            idx = [i for i in idx if not _under(spans, spans[i], outermost_of)]
        return idx

    def pct(seconds):
        return 100.0 * seconds / wall

    def busy(idx):
        return pct(sum(spans[i].duration for i in idx))

    def self_pct(idx):
        return pct(sum(spans[i].duration - child_time[i] for i in idx))

    m: dict[str, float] = {}
    tests = pick("primality.is_prime")
    primes = [i for i in tests if spans[i].attrs["prime"]]
    m["primality.is_prime.calls"] = len(tests)
    m["primality.is_prime.busy_pct"] = busy(tests)
    m["primality.is_prime.prime_calls"] = len(primes)
    m["primality.is_prime.prime_pct"] = busy(primes)
    m["primality.is_prime.composite_pct"] = busy(set(tests) - set(primes))
    m["primality.is_prime.bits_max"] = max((spans[i].attrs["bits"] for i in tests), default=0)

    scans = [i for name in SCANS for i in pick(name, SCANS)]
    scanned = [i for i in tests if _under(spans, spans[i], SCANS)]
    hits = [i for i in scanned if spans[i].attrs["prime"]]
    m["primality.window_scan.calls"] = len(scans)
    m["primality.window_scan.busy_pct"] = busy(scans)
    m["primality.window_scan.candidates"] = len(scanned)
    m["primality.window_scan.hit_ratio"] = len(hits) / len(scanned) if scanned else 0.0

    sieves = pick("primality.primes_in_range")
    m["primality.sieve.calls"] = len(sieves)
    m["primality.sieve.busy_pct"] = busy(sieves)
    m["primality.sieve.width"] = sum(spans[i].attrs["width"] for i in sieves)
    m["primality.sieve.primes_out"] = sum(spans[i].attrs["primes"] for i in sieves)

    radix = [i for name in RADIX for i in pick(name, RADIX)]
    roots = pick("radix.nth_root_floor", {"radix.nth_root_floor"})
    m["radix.busy_pct"] = busy(radix)
    m["radix.nth_root_floor.calls"] = len(roots)
    m["radix.nth_root_floor.busy_pct"] = busy(roots)
    m["radix.nth_root_floor.radicand_bits_max"] = max(
        (spans[i].attrs["bits"] for i in roots), default=0
    )
    m["radix.nth_root_floor.order_max"] = max((spans[i].attrs["order"] for i in roots), default=0)
    for name in ("certified_root_enclosure", "point_root_enclosure"):
        idx = pick(f"radix.{name}")
        m[f"radix.{name}.calls"] = len(idx)
        m[f"radix.{name}.busy_pct"] = busy(idx)
    digit_calls = pick("radix.prc_digits")
    passes = sum(
        1
        for i in pick("radix.certified_root_enclosure")
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "radix.prc_digits"
    )
    m["radix.prc_digits.passes"] = passes
    m["radix.prc_digits.useful_ratio"] = len(digit_calls) / passes if passes else 0.0

    for name in ("build_chain", "verify_chain"):
        idx = pick(f"chain.{name}")
        m[f"chain.{name}.busy_pct"] = busy(idx)
        m[f"chain.{name}.self_pct"] = self_pct(idx)
    for name in ("theta_window_report", "convergence_bound_check"):
        m[f"chain.{name}.busy_pct"] = busy(pick(f"chain.{name}"))

    trees = pick("explorer.explore_tree")
    m["explorer.explore_tree.busy_pct"] = busy(trees)
    m["explorer.explore_tree.self_pct"] = self_pct(trees)
    m["explorer.explore_tree.nodes"] = sum(spans[i].attrs["nodes"] for i in trees)
    for name in ("validate_forest", "gap_intervals"):
        m[f"explorer.{name}.busy_pct"] = busy(pick(f"explorer.{name}"))
    exports = pick("explorer.export")
    m["explorer.export.busy_pct"] = busy(exports)
    m["explorer.export.bytes"] = sum(spans[i].attrs["bytes"] for i in exports)

    m["core.codec.busy_pct"] = busy(pick("core.codec"))
    return m
