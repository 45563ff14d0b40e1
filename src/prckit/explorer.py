"""Finite-depth enumeration of the cylinder structure behind a PRC set.

Every chain prefix p_1..p_k pins the constants extending it into the
cylinder interval [p_k^(1/C_k), (p_k+1)^(1/C_k)]; sibling cylinders are
disjoint, children nest strictly inside parents, and the gaps in between
are free of prime-representing constants.  The tree of cylinders over a
seed range, expanded to finite depth, is the computable witness of that
structure: branching everywhere (child counts >= 2) is the finite-depth
shadow of perfectness, and gap endpoints approximate sub-boundary
constants.

All structural checks are cross-powered integer comparisons on the
underlying cylinder values; decimal enclosures are attached for display
only, at the precision the smallest relative sibling gap suggests, and
again two places finer while any siblings apart by value have
enclosures that meet.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_CONFIG,
    CertifiedDecimalInterval,
    Config,
    EnumerationCapError,
    ExponentSequence,
    Window,
    to_json,
)
from .radix import certified_root_enclosure, point_root_enclosure
from .sieve import count_primes_in_range, enumerable_window, primes_in_range


@dataclass(frozen=True)
class CylinderNode:
    """One cylinder: all constants whose chain starts with ``prefix``.

    The interval endpoints are exactly prefix[-1]^(1/C_depth) and
    (prefix[-1]+1)^(1/C_depth); ``interval`` is their outward decimal
    enclosure at the forest display precision.  ``child_count`` is the
    exact number of primes in this node's window, or None when the window
    was not enumerated (the sequence ends there, or ``enumerable_window``
    refuses it); ``children`` is None for nodes at the expansion frontier.
    Field order is the key order of the JSON export.
    """

    prefix: tuple[int, ...]
    depth: int
    interval: CertifiedDecimalInterval
    child_count: int | None
    truncated: bool = False
    children: tuple["CylinderNode", ...] | None = None

    @property
    def value(self) -> int:
        return self.prefix[-1]


@dataclass(frozen=True)
class Forest:
    """Cylinder trees over a seed range; field order is the JSON key order."""

    exps: ExponentSequence
    seed_lo: int
    seed_hi: int
    depth: int
    display_digits: int
    truncated: bool
    roots: tuple[CylinderNode, ...]

    def nodes_at_level(self, level: int) -> list[CylinderNode]:
        """Nodes at ``level`` generations below the seeds (0 = the seeds)."""
        nodes = list(self.roots)
        for _ in range(level):
            nodes = [c for n in nodes if n.children for c in n.children]
        return nodes


def explore_tree(
    exps: ExponentSequence,
    seed_range: tuple[int, int],
    depth: int,
    config: Config = DEFAULT_CONFIG,
) -> Forest:
    """Expand every prime seed in [lo, hi] to ``depth`` chain levels.

    Every window is built by ``enumerable_window``: nodes above the
    frontier list its primes as children (``primes_in_range``), frontier
    nodes only count them (``count_primes_in_range``).  A window that rule
    refuses flags a node above the frontier truncated instead of silently
    shrinking it, and leaves a frontier node's child count None.

    The display precision is estimated from the smallest relative gap
    between adjacent sibling cylinders, then checked on the enclosures
    attached at it: while two siblings apart by value have enclosures
    that meet, all are attached again two places finer (at most 64 tries).
    """
    lo, hi = seed_range
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > exps.max_depth:
        raise ValueError(f"depth {depth} beyond sequence max depth {exps.max_depth}")
    seeds = primes_in_range(lo, hi + 1)
    bare = [_expand(exps, (p,), depth) for p in seeds]
    truncated = any(node.truncated for group in _sibling_groups(bare) for node in group)
    digits = _estimate_digits(exps, bare)
    for _ in range(64):
        roots = tuple(_attach(exps, node, digits, config) for node in bare)
        if _separated(roots):
            return Forest(exps, lo, hi, depth, digits, truncated, roots)
        digits += 2
    raise EnumerationCapError("could not separate sibling enclosures")


# a cylinder before its enclosure is attached
_Cylinder = namedtuple("_Cylinder", "prefix child_count truncated children")


def _expand(exps, prefix, depth) -> _Cylinder:
    level = len(prefix)
    expandable = level < depth
    count = primes = None  # stay None when the sequence ends here or the window is refused
    if level < exps.max_depth:
        with contextlib.suppress(EnumerationCapError):
            window = enumerable_window(prefix[-1], exps.term(level + 1))
            if expandable:
                primes = primes_in_range(window.lo, window.hi_exclusive)
                count = len(primes)
            else:
                count = count_primes_in_range(window.lo, window.hi_exclusive)
    children = None
    if expandable:
        children = tuple(_expand(exps, prefix + (q,), depth) for q in primes or ())
    return _Cylinder(prefix, count, expandable and count is None, children)


def _sibling_groups(roots):
    """The seeds, then every listed set of children, last parent first."""
    groups = [roots]
    while groups:
        group = groups.pop()
        yield group
        groups.extend(node.children for node in group if node.children)


def _estimate_digits(exps, roots) -> int:
    """Places the smallest relative gap between adjacent siblings asks for.

    At least 4, and 6 when no adjacent siblings are apart: touching
    cylinders (seeds 2, 3) share an endpoint and are never separated.
    """
    needs = []
    for group in _sibling_groups(roots):
        for left, right in zip(group, group[1:]):
            a, b = left.prefix[-1] + 1, right.prefix[-1]
            if b > a:
                C = exps.partial_product(len(left.prefix))
                gap_log = math.log10(b - a) - math.log10(C) - (1 - 1 / C) * math.log10(a)
                needs.append(-gap_log + 1)
    return max(4, math.ceil(max(needs))) if needs else 6


def _separated(roots) -> bool:
    """Whether all adjacent siblings apart by value have enclosures apart."""
    return all(
        left.interval.hi_mantissa < right.interval.lo_mantissa
        for group in _sibling_groups(roots)
        for left, right in zip(group, group[1:])
        if right.value > left.value + 1
    )


def _attach(exps, node, digits, config) -> CylinderNode:
    """``node`` with enclosures at ``digits`` all the way down."""
    level = len(node.prefix)
    order = exps.partial_product(level)
    interval = certified_root_enclosure(node.prefix[-1], order, digits, config)
    children = node.children
    if children is not None:
        children = tuple(_attach(exps, c, digits, config) for c in children)
    return CylinderNode(
        node.prefix, level, interval, node.child_count, node.truncated, children
    )


def validate_forest(forest: Forest) -> list[str]:
    """Exact structural checks; returns human-readable violations (none = pass).

    Nestedness and disjointness are decided by integer comparisons on the
    cylinder values (cross-powering reduces both to window membership), and
    additionally on the displayed mantissas.
    """
    problems: list[str] = []
    for left, right in zip(forest.roots, forest.roots[1:]):
        if right.value < left.value + 1:
            problems.append(f"roots {left.value}, {right.value} overlap")
    for root in forest.roots:
        _validate_node(forest.exps, root, problems)
    return problems


def _validate_node(exps, node, problems):
    # a frontier node is counted, not listed; a truncated node's window was
    # refused, possibly before its power was built, and must not be built here
    if node.children is None or node.truncated:
        return
    c = exps.term(node.depth + 1)
    window = Window.from_parent(node.value, c)
    if node.child_count != len(node.children):
        problems.append(
            f"node {node.prefix}: child_count {node.child_count} != "
            f"{len(node.children)} children"
        )
    for child in node.children:
        if not (window.lo <= child.value <= window.hi_exclusive - 1):
            problems.append(
                f"child {child.value} of {node.prefix} outside window "
                f"[{window.lo}, {window.hi_exclusive})"
            )
        if not (
            node.interval.lo_mantissa <= child.interval.lo_mantissa
            and child.interval.hi_mantissa <= node.interval.hi_mantissa
        ):
            problems.append(
                f"child {child.value} enclosure not nested in {node.prefix}"
            )
    for a, b in zip(node.children, node.children[1:]):
        if b.value < a.value + 2:
            problems.append(
                f"siblings {a.value}, {b.value} under {node.prefix} not disjoint"
            )
        if b.interval.lo_mantissa <= a.interval.hi_mantissa:
            problems.append(
                f"sibling enclosures {a.value}, {b.value} under {node.prefix} "
                "not separated at display precision"
            )
    for child in node.children:
        _validate_node(exps, child, problems)


@dataclass(frozen=True)
class GapEndpoint:
    """Exact gap endpoint: the real ``value``^(1/C_{level+1})."""

    value: int
    level: int
    enclosure: CertifiedDecimalInterval


@dataclass(frozen=True)
class Gap:
    left: GapEndpoint
    right: GapEndpoint


def gap_intervals(
    forest: Forest,
    level: int,
    config: Config = DEFAULT_CONFIG,
    digits: int | None = None,
) -> list[Gap]:
    """Maximal open gaps between consecutive level-``level`` cylinders.

    Level counts generations below the seeds (0 = seed cylinders).  At
    level 0 the gaps lie between seeds apart by value.  Below it they are
    the complement of the level's cylinders within the span of their
    parents' windows: from the first parent's window floor to the first
    cylinder, between consecutive cylinders, and from the last cylinder to
    the last parent's window top (a gap that always exists, because that
    composite top is excluded).  A parent with no children, or the span
    between two parents' windows, adds no cylinder and so widens the gap
    it falls in.  Right endpoints of gaps approximate left sub-boundary
    constants from below, left endpoints right sub-boundary constants.

    Requires full expansion above the requested level: a truncated or
    unexpanded node there would silently produce wrong gaps, so the first
    such node, in level order, is refused instead.
    """
    if level < 0 or level >= forest.depth:
        raise ValueError(f"level must be in [0, {forest.depth - 1}], got {level}")
    nodes = forest.roots
    if level == 0:
        pairs = [
            (a.value + 1, b.value) for a, b in zip(nodes, nodes[1:]) if b.value > a.value + 1
        ]
    else:
        for _ in range(level):
            parents = nodes
            for node in parents:
                if node.truncated or node.children is None:
                    raise EnumerationCapError(
                        f"forest truncated at {node.prefix}; gap list would be wrong"
                    )
            nodes = [child for node in parents for child in node.children]
        if not parents:
            return []
        c = forest.exps.term(level + 1)
        values = [node.value for node in nodes]
        lefts = [Window.from_parent(parents[0].value, c).lo, *(q + 1 for q in values)]
        rights = [*values, Window.from_parent(parents[-1].value, c).hi_exclusive + 1]
        pairs = zip(lefts, rights)
    # after the walk: C_{level+1} below a refused node may be too large to build
    order = forest.exps.partial_product(level + 1)
    if digits is None:
        digits = forest.display_digits

    def endpoint(value: int) -> GapEndpoint:
        return GapEndpoint(
            value, level, point_root_enclosure(value, order, digits, config)
        )

    return [Gap(endpoint(a), endpoint(b)) for a, b in pairs]


@dataclass(frozen=True)
class LevelStats:
    level: int
    nodes: int
    counted: int
    min_children: int | None
    max_children: int | None
    mean_children: Fraction | None


@dataclass(frozen=True)
class BranchingStats:
    """Per-level child-count statistics plus the finite-depth warnings.

    ``isolation_candidates`` lists prefixes with fewer than two children —
    never an error, since finite truncation cannot contradict perfectness —
    and ``empty_windows`` lists prime-free windows, noteworthy because they
    become impossible for large parents.
    """

    levels: tuple[LevelStats, ...]
    total_leaves: int
    isolation_candidates: tuple[tuple[int, ...], ...]
    empty_windows: tuple[tuple[int, ...], ...]


def branching_stats(forest: Forest) -> BranchingStats:
    levels = []
    isolation = []
    empty = []
    for level in range(forest.depth):
        nodes = forest.nodes_at_level(level)
        counts = [n.child_count for n in nodes if n.child_count is not None]
        for n in nodes:
            if n.child_count is not None and n.child_count < 2:
                isolation.append(n.prefix)
            if n.child_count == 0:
                empty.append(n.prefix)
        levels.append(
            LevelStats(
                level=level,
                nodes=len(nodes),
                counted=len(counts),
                min_children=min(counts) if counts else None,
                max_children=max(counts) if counts else None,
                mean_children=Fraction(sum(counts), len(counts)) if counts else None,
            )
        )
    return BranchingStats(
        levels=tuple(levels),
        total_leaves=len(forest.nodes_at_level(forest.depth - 1)),
        isolation_candidates=tuple(isolation),
        empty_windows=tuple(empty),
    )


# ---------------------------------------------------------------------------
# export

def forest_to_json(forest: Forest) -> dict:
    return to_json(forest)


def forest_to_csv(forest: Forest) -> str:
    """Flat CSV: one row per node."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["prefix", "depth", "lo_mantissa", "hi_mantissa", "digits", "child_count", "truncated"]
    )

    def walk(node):
        writer.writerow(
            [
                " ".join(str(p) for p in node.prefix),
                node.depth,
                node.interval.lo_mantissa,
                node.interval.hi_mantissa,
                node.interval.digits_after_point,
                "" if node.child_count is None else node.child_count,
                "1" if node.truncated else "0",
            ]
        )
        for child in node.children or ():
            walk(child)

    for root in forest.roots:
        walk(root)
    return out.getvalue()
