import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import prckit as pk
from prckit import explorer, radix, sieve
from prckit.core import CertifiedDecimalInterval, Window
from prckit.explorer import CylinderNode, Forest, Gap, GapEndpoint, _attach

from conftest import primes_between


@pytest.fixture(scope="module")
def const3_forest():
    return pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 3), 2)


class TestExploreTree:
    def test_const3_roots_and_children(self, const3_forest):
        assert [r.value for r in const3_forest.roots] == [2, 3]
        r2, r3 = const3_forest.roots
        assert [c.value for c in r2.children] == [11, 13, 17, 19, 23]
        assert r2.child_count == 5
        # window [27, 63) recomputed by the trial-division oracle
        assert [c.value for c in r3.children] == primes_between(27, 63)
        assert r3.child_count == 9

    def test_depth_bookkeeping(self, const3_forest):
        r2 = const3_forest.roots[0]
        assert r2.depth == 1
        assert all(c.depth == 2 for c in r2.children)
        assert all(c.children is None for c in r2.children)

    def test_leaf_windows_still_counted(self, const3_forest):
        # frontier nodes report exact child counts without materializing
        for leaf in const3_forest.roots[0].children:
            expect = len(primes_between(leaf.value**3, (leaf.value + 1) ** 3 - 1))
            assert leaf.child_count == expect

    def test_const2_single_seed(self):
        forest = pk.explore_tree(pk.parse_exponent_spec("const:2"), (2, 2), 2)
        root = forest.roots[0]
        assert [c.value for c in root.children] == [5, 7]
        stats = pk.branching_stats(forest)
        assert stats.levels[0].min_children == stats.levels[0].max_children == 2
        assert stats.total_leaves == 2

    def test_no_violations(self, const3_forest):
        assert pk.validate_forest(const3_forest) == []

    def test_nested_enclosures(self, const3_forest):
        for root in const3_forest.roots:
            for child in root.children:
                assert root.interval.lo_mantissa <= child.interval.lo_mantissa
                assert child.interval.hi_mantissa <= root.interval.hi_mantissa

    def test_sibling_enclosures_separate(self, const3_forest):
        for root in const3_forest.roots:
            for a, b in zip(root.children, root.children[1:]):
                assert a.interval.hi_mantissa < b.interval.lo_mantissa

    def test_child_union_strictly_interior(self, const3_forest):
        # p^c is composite and the window top is excluded, so the union of
        # child cylinders never touches either parent endpoint
        for root in const3_forest.roots:
            w_lo = root.value**3
            w_top = (root.value + 1) ** 3
            assert root.children[0].value > w_lo
            assert root.children[-1].value + 1 < w_top

    def test_truncation_on_tiny_cap(self, monkeypatch):
        monkeypatch.setattr(sieve, "ENUMERATION_CAP", 10)
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 2), 2)
        assert forest.truncated
        assert forest.roots[0].truncated and forest.roots[0].children == ()
        # a truncated node has no child count to check its empty children against
        assert pk.validate_forest(forest) == []

    def test_validate_catches_tampering(self, const3_forest):
        root = const3_forest.roots[0]
        bad_root = replace(root, child_count=7)
        broken = replace(const3_forest, roots=(bad_root,) + const3_forest.roots[1:])
        assert any("child_count" in p for p in pk.validate_forest(broken))

    def test_validate_catches_emptied_inner_nodes(self):
        # an inner node's empty children must match its child count; only
        # frontier nodes (children None) are counted without a listing
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 2), 3)
        root = forest.roots[0]
        node = root.children[0]
        assert (node.prefix, node.child_count) == ((2, 11), 52)
        emptied = replace(root, children=(replace(node, children=()),) + root.children[1:])
        assert pk.validate_forest(replace(forest, roots=(emptied,))) == [
            "node (2, 11): child_count 52 != 0 children"
        ]
        bare_root = replace(root, children=())
        assert pk.validate_forest(replace(forest, roots=(bare_root,))) == [
            "node (2,): child_count 5 != 0 children"
        ]

    def test_validate_builds_no_window_the_bit_ceiling_refused(self, monkeypatch):
        # the chain bit ceiling truncates (2, 5) and (2, 7) before their
        # 1000003rd powers are built; validating must not build them either
        forest = pk.explore_tree(pk.parse_exponent_spec("list:3,2,1000003"), (2, 2), 3)
        inner = forest.roots[0].children
        assert [(n.prefix, n.truncated, n.children) for n in inner] == [
            ((2, 5), True, ()),
            ((2, 7), True, ()),
        ]
        built = Window.from_parent

        def refusing(p, c):
            assert c != 1000003, f"window of {p} to the {c} built"
            return built(p, c)

        monkeypatch.setattr(Window, "from_parent", refusing)
        assert pk.validate_forest(forest) == []

    def test_windows_the_cap_refuses_by_bit_lengths_are_never_built(self, monkeypatch):
        # 2^700001 and up: every root's window is refused before it is built
        built, from_parent = [], Window.from_parent
        monkeypatch.setattr(
            Window, "from_parent", lambda p, c: built.append((p, c)) or from_parent(p, c)
        )
        forest = pk.explore_tree(pk.parse_exponent_spec("list:3,700001"), (2, 7), 1)
        assert built == []
        assert (forest.truncated, forest.display_digits) == (False, 4)
        seeds = (2, 3, 5, 7)
        assert [(r.prefix, r.child_count, r.truncated, r.children) for r in forest.roots] == [
            ((p,), None, False, None) for p in seeds
        ]
        assert [r.interval for r in forest.roots] == [
            pk.certified_root_enclosure(p, 3, 4) for p in seeds
        ]


class TestGapIntervals:
    def test_const3_seed2_level1(self):
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 2), 2)
        gaps = pk.gap_intervals(forest, 1, digits=10)
        pairs = [(g.left.value, g.right.value) for g in gaps]
        # leading gap, 4 interior gaps, trailing gap at the composite top
        assert pairs == [(8, 11), (12, 13), (14, 17), (18, 19), (20, 23), (24, 27)]
        digits, places = gaps[0].right.enclosure.agreed_digits()
        assert digits.startswith("1.3052") and places >= 5

    def test_level_zero_gaps(self, const3_forest):
        # roots 2 and 3 touch, so the explored range has no level-0 gap
        assert pk.gap_intervals(const3_forest, 0) == []
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 5), 2)
        gaps = pk.gap_intervals(forest, 0)
        assert [(g.left.value, g.right.value) for g in gaps] == [(4, 5)]

    def test_merged_gap_across_roots(self, const3_forest):
        gaps = pk.gap_intervals(const3_forest, 1)
        # trailing gap of root 2 merges through [26, 27) into root 3's
        # leading gap: from 23+1 to the first child of root 3
        assert (24, 29) in [(g.left.value, g.right.value) for g in gaps]

    def test_single_child_has_no_interior_gaps(self):
        # hand-built forest: one root with a single child
        exps = pk.parse_exponent_spec("const:3")
        child = CylinderNode(
            prefix=(2, 11),
            depth=2,
            interval=pk.certified_root_enclosure(11, 9, 8),
            child_count=None,
            children=None,
        )
        root = CylinderNode(
            prefix=(2,),
            depth=1,
            interval=pk.certified_root_enclosure(2, 3, 8),
            child_count=1,
            children=(child,),
        )
        forest = Forest(exps, 2, 2, 2, 8, truncated=False, roots=(root,))
        gaps = pk.gap_intervals(forest, 1)
        assert [(g.left.value, g.right.value) for g in gaps] == [(8, 11), (12, 27)]

    def test_truncated_forest_refused(self, monkeypatch):
        monkeypatch.setattr(sieve, "ENUMERATION_CAP", 10)
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 2), 2)
        with pytest.raises(pk.EnumerationCapError):
            pk.gap_intervals(forest, 1)

    def test_level_bounds(self, const3_forest):
        with pytest.raises(ValueError):
            pk.gap_intervals(const3_forest, 2)
        with pytest.raises(ValueError):
            pk.gap_intervals(const3_forest, -1)

    def test_powfact3_seed_sweep_endpoints(self):
        forest = pk.explore_tree(pk.parse_exponent_spec("powfact:3"), (2, 11), 2)
        gaps = pk.gap_intervals(forest, 1)
        rights = [g.right.value for g in gaps]
        for first_child in (11, 29, 127, 347, 1361):
            assert first_child in rights


def merge_loop_gaps(forest, level, digits=None):
    """Gaps by the merge loop ``gap_intervals`` ran before it listed them
    as the complement of each level's cylinders, kept as the reference:
    parent by parent, carrying the left end of an open gap across parents
    with no children, after refusing (in preorder) any truncated or
    unexpanded node above ``level``."""
    order = forest.exps.partial_product(level + 1)
    digits = forest.display_digits if digits is None else digits

    def endpoint(value):
        return GapEndpoint(value, level, pk.point_root_enclosure(value, order, digits))

    if level == 0:
        return [
            Gap(endpoint(left.value + 1), endpoint(right.value))
            for left, right in zip(forest.roots, forest.roots[1:])
            if right.value > left.value + 1
        ]

    def check_expanded(node):
        if node.depth - 1 > level - 1:
            return
        if node.truncated or node.children is None:
            raise pk.EnumerationCapError(
                f"forest truncated at {node.prefix}; gap list would be wrong"
            )
        for child in node.children:
            check_expanded(child)

    parents = forest.nodes_at_level(level - 1)
    for node in forest.roots:
        check_expanded(node)
    gaps = []
    pending_left = last_window_top = None
    for parent in parents:
        window = Window.from_parent(parent.value, forest.exps.term(parent.depth + 1))
        qs = [child.value for child in parent.children or ()]
        if not qs:
            if pending_left is None:
                pending_left = window.lo
            last_window_top = window.hi_exclusive + 1
            continue
        left = pending_left if pending_left is not None else window.lo
        gaps.append(Gap(endpoint(left), endpoint(qs[0])))
        for a, b in zip(qs, qs[1:]):
            gaps.append(Gap(endpoint(a + 1), endpoint(b)))
        pending_left = qs[-1] + 1
        last_window_top = window.hi_exclusive + 1
    if pending_left is not None and last_window_top is not None:
        gaps.append(Gap(endpoint(pending_left), endpoint(last_window_top)))
    return gaps


def gaps_or_refusal(list_gaps, forest, level, digits=None):
    try:
        return list_gaps(forest, level, digits=digits)
    except pk.EnumerationCapError as exc:
        return str(exc)


def refused_nodes(forest, level):
    """Prefixes of the truncated or unexpanded nodes above ``level``, in preorder."""
    found = []

    def walk(node):
        if len(node.prefix) <= level and (node.truncated or node.children is None):
            found.append(node.prefix)
        for child in node.children or ():
            walk(child)

    for root in forest.roots:
        walk(root)
    return found


@pytest.mark.parametrize(
    "spec,seeds,depth",
    [
        ("const:2", (2, 13), 3),
        ("const:2", (2, 3), 4),
        ("const:3", (2, 2), 3),
        ("const:3", (2, 3), 2),
        ("const:3", (5, 7), 2),
        ("const:4", (2, 5), 2),
        ("const:5", (2, 3), 2),
        ("factorial", (2, 7), 3),
        ("factorial", (2, 3), 3),
        ("powfact:2", (2, 7), 3),
        ("powfact:3", (2, 11), 2),
        ("list:2,3,2", (2, 5), 3),
        ("list:3,2,5", (2, 7), 2),
        ("list:2,2,2,2", (2, 5), 4),
    ],
)
def test_gaps_match_the_merge_loop(spec, seeds, depth):
    # every level, at the display precision and at 12 places; the
    # powfact:2 forest is truncated at (2, 5), so both refuse its level 2
    forest = pk.explore_tree(pk.parse_exponent_spec(spec), seeds, depth)
    for level in range(depth):
        for digits in (None, 12):
            want = gaps_or_refusal(merge_loop_gaps, forest, level, digits)
            assert gaps_or_refusal(pk.gap_intervals, forest, level, digits) == want


@st.composite
def hand_built_forests(draw):
    """const:2 forests over seeds below 32, two or three levels deep, whose
    inner nodes list an ascending sample of their window (often empty:
    childless parents), or are truncated, or were left unexpanded."""
    depth = draw(st.integers(2, 3))
    interval = CertifiedDecimalInterval(0, 1, 0)  # gap_intervals reads no node interval

    def node(prefix):
        level, p = len(prefix), prefix[-1]
        kind = draw(st.sampled_from(["listed"] * 4 + ["truncated", "unexpanded"]))
        if level == depth or kind == "unexpanded":
            return CylinderNode(prefix, level, interval, None)
        if kind == "truncated":
            return CylinderNode(prefix, level, interval, None, True, ())
        values = draw(st.sets(st.integers(p * p + 1, (p + 1) ** 2 - 2), max_size=4))
        children = tuple(node(prefix + (q,)) for q in sorted(values))
        return CylinderNode(prefix, level, interval, len(children), False, children)

    seeds = sorted(draw(st.sets(st.integers(2, 31), max_size=4)))
    roots = tuple(node((p,)) for p in seeds)
    return Forest(pk.parse_exponent_spec("const:2"), 2, 31, depth, 4, False, roots)


@given(hand_built_forests(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_gaps_match_the_merge_loop_on_hand_built_forests(forest, level):
    level = min(level, forest.depth - 1)
    want = gaps_or_refusal(merge_loop_gaps, forest, level)
    got = gaps_or_refusal(pk.gap_intervals, forest, level)
    refused = refused_nodes(forest, level)
    if not refused:
        assert got == want
    else:
        # both refuse: the merge loop names the first such node in
        # preorder, the level walk the first in level order
        assert want == f"forest truncated at {refused[0]}; gap list would be wrong"
        first = min(refused, key=len)
        assert got == f"forest truncated at {first}; gap list would be wrong"


def test_gap_refusal_names_the_first_node_in_level_order():
    # (2, 11) is truncated a level below the truncated root 3: preorder
    # meets it first, level order meets the root first
    interval = CertifiedDecimalInterval(0, 1, 0)
    child = CylinderNode((2, 11), 2, interval, None, True, ())
    roots = (
        CylinderNode((2,), 1, interval, 1, False, (child,)),
        CylinderNode((3,), 1, interval, None, True, ()),
    )
    forest = Forest(pk.parse_exponent_spec("const:3"), 2, 3, 3, 4, True, roots)
    assert refused_nodes(forest, 2) == [(2, 11), (3,)]
    with pytest.raises(pk.EnumerationCapError) as refusal:
        pk.gap_intervals(forest, 2)
    assert str(refusal.value) == "forest truncated at (3,); gap list would be wrong"


def test_gap_refusal_builds_no_order_below_the_forest(monkeypatch):
    # a powfact:3 forest to depth 12 is truncated at (2, 11), at level 2:
    # the refusal at level 11 must come before C_12 = 3^(12!) is built
    exps = pk.parse_exponent_spec("powfact:3")
    forest = pk.explore_tree(exps, (2, 2), 12)
    built = type(exps).partial_product

    def spy(self, k):
        if k > 2:
            raise AssertionError(f"C_{k} built")
        return built(self, k)

    monkeypatch.setattr(type(exps), "partial_product", spy)
    with pytest.raises(pk.EnumerationCapError) as refusal:
        pk.gap_intervals(forest, 11)
    assert str(refusal.value) == "forest truncated at (2, 11); gap list would be wrong"


class TestBranchingStats:
    def test_const3_two_levels(self, const3_forest):
        stats = pk.branching_stats(const3_forest)
        level0 = stats.levels[0]
        assert (level0.min_children, level0.max_children) == (5, 9)
        assert level0.mean_children == Fraction(14, 2)
        level1 = stats.levels[1]
        counts = [
            len(primes_between(q**3, (q + 1) ** 3 - 1))
            for q in (11, 13, 17, 19, 23) + tuple(primes_between(27, 63))
        ]
        assert level1.min_children == min(counts)
        assert level1.max_children == max(counts)
        assert level1.mean_children == Fraction(sum(counts), len(counts))
        assert stats.total_leaves == 14

    def test_isolation_and_empty_flags(self):
        exps = pk.parse_exponent_spec("const:3")
        lonely = CylinderNode(
            prefix=(2, 11),
            depth=2,
            interval=CertifiedDecimalInterval(0, 1, 0),
            child_count=0,
            children=None,
        )
        root = CylinderNode(
            prefix=(2,),
            depth=1,
            interval=CertifiedDecimalInterval(0, 1, 0),
            child_count=1,
            children=(lonely,),
        )
        forest = Forest(exps, 2, 2, 2, 4, truncated=False, roots=(root,))
        stats = pk.branching_stats(forest)
        assert (2,) in stats.isolation_candidates
        assert (2, 11) in stats.isolation_candidates
        assert (2, 11) in stats.empty_windows
        assert (2,) not in stats.empty_windows


class TestExport:
    def test_csv_shape(self, const3_forest):
        csv_text = pk.forest_to_csv(const3_forest)
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("prefix,depth,lo_mantissa")
        assert len(lines) == 1 + 2 + 5 + 9
        assert lines[1].startswith("2,1,")
        assert any(line.startswith("2 11,2,") for line in lines)

    def test_json_shape(self, const3_forest):
        doc = pk.forest_to_json(const3_forest)
        assert doc["exps"] == "const:3"
        assert [r["prefix"] for r in doc["roots"]] == [["2"], ["3"]]
        assert doc["roots"][0]["child_count"] == "5"
        assert doc["roots"][0]["children"][0]["prefix"] == ["2", "11"]

    def test_deterministic(self):
        exps = pk.parse_exponent_spec("const:3")
        one = pk.forest_to_json(pk.explore_tree(exps, (2, 3), 2))
        two = pk.forest_to_json(pk.explore_tree(exps, (2, 3), 2))
        assert one == two


@pytest.mark.parametrize("spec,seeds", [("const:3", (2, 3)), ("const:2", (2, 13))])
def test_counted_frontier_matches_listed_children(spec, seeds):
    # frontier nodes count their windows without listing them; a forest one
    # level deeper lists the same windows, and cut back to the same frontier
    # it must export byte for byte the same
    exps = pk.parse_exponent_spec(spec)
    forest = pk.explore_tree(exps, seeds, 2)
    deeper = pk.explore_tree(exps, seeds, 3)

    def cut(node):
        if node.depth == 2:
            return replace(node, children=None)
        return replace(node, children=tuple(cut(c) for c in node.children))

    roots = tuple(
        _attach(exps, cut(r), forest.display_digits, pk.DEFAULT_CONFIG) for r in deeper.roots
    )
    cut_back = replace(deeper, depth=2, display_digits=forest.display_digits, roots=roots)
    assert all(n.child_count is not None for n in forest.nodes_at_level(1))
    assert json.dumps(pk.forest_to_json(cut_back)) == json.dumps(pk.forest_to_json(forest))
    assert pk.forest_to_csv(cut_back) == pk.forest_to_csv(forest)


def test_min_chain_is_leftmost_path():
    exps = pk.parse_exponent_spec("const:3")
    chain = pk.build_chain(exps, 2, 3)
    forest = pk.explore_tree(exps, (2, 2), 3)
    node = forest.roots[0]
    path = [node.value]
    while node.children:
        node = node.children[0]
        path.append(node.value)
    assert tuple(path) == chain.primes


def test_gap_endpoints_refine_within_parent_cylinder():
    # the leftmost gap's right endpoint at level k+1 stays inside the
    # level-k cylinder it refines, so it moves by at most that width
    exps = pk.parse_exponent_spec("const:3")
    forest = pk.explore_tree(exps, (2, 2), 3)
    level1 = pk.gap_intervals(forest, 1)[0].right  # 11^(1/9)
    level2 = pk.gap_intervals(forest, 2)[0].right  # 1361^(1/27)
    assert (level1.value, level2.value) == (11, 1361)
    # cross-powered containment: 11^3 <= 1361 and 1361+1 <= 12^3
    assert level1.value ** 3 <= level2.value
    assert level2.value + 1 <= (level1.value + 1) ** 3


def _nodes(forest):
    stack = list(forest.roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children or ())


@pytest.mark.parametrize(
    "limits",
    [
        {},
        {"ENUMERATION_CAP": 60},
        {"MAX_SIEVE_BASE": 30},
        {"ENUMERATION_CAP": 1000, "MAX_SIEVE_BASE": 100},
    ],
    ids=["default", "cap60", "base30", "cap1000-base100"],
)
def test_child_counts_follow_the_engine(monkeypatch, limits):
    # every node's child count is the engine's count of its window, and
    # None exactly where the engine refuses; refused nodes above the
    # frontier, and only those, are truncated
    for name, value in limits.items():
        monkeypatch.setattr(sieve, name, value)
    exps = pk.parse_exponent_spec("const:3")
    forest = pk.explore_tree(exps, (2, 7), 2)
    refused = 0
    for node in _nodes(forest):
        c = exps.term(node.depth + 1)
        window = pk.Window.from_parent(node.value, c)
        try:
            assert pk.enumerable_window(node.value, c) == window
            expect = pk.count_primes_in_range(window.lo, window.hi_exclusive)
        except pk.EnumerationCapError:
            expect = None
            refused += 1
        assert node.child_count == expect, node.prefix
        assert node.truncated == (expect is None and node.depth < forest.depth)
        if node.children:
            assert [c.value for c in node.children] == primes_between(
                window.lo, window.hi_exclusive
            )
    assert forest.truncated == any(n.truncated for n in _nodes(forest))
    assert (refused > 0) == bool(limits)


@pytest.mark.parametrize(
    "limit,value,seeds,depth",
    [
        # windows about 6 * 10^7 wide fit under this cap but not under the
        # exact sieve's 5 * 10^7 width limit
        pytest.param("ENUMERATION_CAP", 10**8, (30_000_000, 30_000_100), 1, id="1"),
        pytest.param("ENUMERATION_CAP", 10**8, (30_000_000, 30_000_100), 2, id="2"),
        # windows about 2000 wide whose sqrt(hi) passes base primes to 1000
        pytest.param("MAX_SIEVE_BASE", 1000, (1000, 1040), 2, id="base1000"),
    ],
)
def test_windows_past_the_sieve_width_limit_are_refused(monkeypatch, limit, value, seeds, depth):
    # windows the exact sieve refuses are refused by the engine, so the
    # roots are truncated (depth 2) or uncounted (depth 1) instead of an error
    monkeypatch.setattr(sieve, limit, value)
    exps = pk.parse_exponent_spec("const:2")
    forest = pk.explore_tree(exps, seeds, depth)
    assert forest.roots
    assert all(r.child_count is None for r in forest.roots)
    assert forest.truncated == (depth == 2)
    assert pk.validate_forest(forest) == []


# touching seeds (2:3), an empty seed range (10:2), depths 1-3
REFERENCE_FORESTS = [
    ("const:2", (2, 13), 2),
    ("const:2", (3, 100), 1),
    ("const:3", (2, 2), 3),
    ("const:3", (2, 3), 2),
    ("const:3", (2, 3), 1),
    ("const:3", (5, 7), 2),
    ("const:3", (10, 2), 2),
    ("const:4", (2, 5), 2),
    ("const:5", (2, 3), 2),
    ("factorial", (2, 7), 3),
    ("powfact:2", (2, 11), 2),
    ("powfact:3", (2, 11), 2),
    ("list:2,3,2", (2, 13), 2),
    ("list:3,2,5", (2, 7), 2),
]


def _two_pass_digits(forest, start=None):
    """Display precision by separate point enclosures of both ends of every
    gap between adjacent siblings apart by value, two places finer until
    each gap separates; from ``start``, or else from the estimate by the
    smallest relative gap (at least 4, and 6 when there is no gap)."""
    exps = forest.exps
    gaps = []
    groups = [forest.roots]
    for group in groups:
        gaps += [
            (left.value + 1, right.value, exps.partial_product(left.depth))
            for left, right in zip(group, group[1:])
            if right.value > left.value + 1
        ]
        groups += [node.children for node in group if node.children]
    if start is None:
        if not gaps:
            return 6
        gap_logs = [
            math.log10(b - a) - math.log10(C) - (1 - 1 / C) * math.log10(a)
            for a, b, C in gaps
        ]
        start = max(4, math.ceil(max(-g + 1 for g in gap_logs)))
    d = start
    while not all(
        pk.point_root_enclosure(a, C, d).hi_mantissa
        < pk.point_root_enclosure(b, C, d).lo_mantissa
        for a, b, C in gaps
    ):
        d += 2
    return d


@pytest.mark.parametrize("floor", [False, True], ids=["estimate", "floor4"])
def test_display_precision_matches_two_pass_rule(monkeypatch, floor):
    # checking the attached enclosures picks the precision the separate
    # point enclosures of every sibling gap pick; forcing the estimate to
    # its floor of 4 makes the forests that need more take the bump path
    if floor:
        monkeypatch.setattr(explorer, "_estimate_digits", lambda exps, roots: 4)
    bumped = 0
    for spec, seeds, depth in REFERENCE_FORESTS:
        exps = pk.parse_exponent_spec(spec)
        forest = pk.explore_tree(exps, seeds, depth)
        digits = _two_pass_digits(forest, 4 if floor else None)
        assert forest.display_digits == digits, (spec, seeds, depth)
        for node in _nodes(forest):
            order = exps.partial_product(node.depth)
            assert node.interval == pk.certified_root_enclosure(node.value, order, digits)
        bumped += digits > 4
    assert bumped or not floor  # from the floor, some forest needed a bump


def test_each_cylinder_rooted_once(monkeypatch):
    # two scaled roots per node (its enclosure's ends) at the one precision
    # tried: sibling gaps are checked on those enclosures, not rooted again
    calls = 0
    real = radix.scaled_root_floor

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(radix, "scaled_root_floor", counting)
    forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 2), 3)
    assert sum(1 for _ in _nodes(forest)) == 541
    assert calls == 2 * 541
