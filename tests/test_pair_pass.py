"""Exact-equality oracle for the shared segment-pair pass.

Layout validation and the avoidable-crossing scan both walk the edge pairs
that ``graph._touching_pairs`` yields, as arrays, and hand the near-parallel
pairs to the scalar ``graph._collinear_overlap``. The all-pairs scalar loops
they replaced are kept here as test-local oracles, with the strict
bounding-box filter and the scan's own copy of the collinearity test:
verdicts, the first offending pair named by ``ValidationError`` and the
crossing tuples must all be equal.
The oracle hands the longer segment of each pair to the old collinearity
test first, as the shared test does: that order makes the verdict
independent of edge order, and is the one intended difference.
"""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgemorph import (
    AvoidableCrossing,
    DegeneracyError,
    EdgemorphError,
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    PRESETS,
    ValidationError,
    compute_schedule,
    find_avoidable_crossings,
    parse_layout,
    validate_layout,
    validate_schedule,
)
import edgemorph.graph as graph
from edgemorph.crossings import PARAM_EPS, segment_intersection
from edgemorph.graph import _BOX_MARGIN, _collinear_overlap, _touching_pairs
from conftest import DATA_DIR
from gen_layouts import synth_layout


def as_list(blocks):
    """The (i, j) index blocks of ``_touching_pairs`` as a sorted list of pairs."""
    return sorted(pair for i, j in blocks for pair in zip(i.tolist(), j.tolist()))


def old_collinear_overlap(a, b, c, d):
    rx, ry = b[0] - a[0], b[1] - a[1]
    length = math.hypot(rx, ry)
    if length == 0.0:
        return False
    sx, sy = d[0] - c[0], d[1] - c[1]
    if abs(rx * sy - ry * sx) > 1e-9 * length * math.hypot(sx, sy):
        return False
    qx, qy = c[0] - a[0], c[1] - a[1]
    if abs(rx * qy - ry * qx) > 1e-9 * length * max(math.hypot(qx, qy), length):
        return False
    denom = length * length
    t0 = (qx * rx + qy * ry) / denom
    t1 = t0 + (sx * rx + sy * ry) / denom
    lo, hi = min(t0, t1), max(t0, t1)
    return min(hi, 1.0) - max(lo, 0.0) > 1e-9


def longer_first(s1, s2):
    """The pair with the longer segment first, ties broken by coordinates."""
    key1 = (math.hypot(s1[1][0] - s1[0][0], s1[1][1] - s1[0][1]), *s1)
    key2 = (math.hypot(s2[1][0] - s2[0][0], s2[1][1] - s2[0][1]), *s2)
    return (s2, s1) if key2 > key1 else (s1, s2)


def old_validate_layout(layout):
    GraphLayout(layout.nodes, layout.edges)
    segments = [layout.endpoints(edge) for edge in layout.edges]
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            (a, b), (c, d) = longer_first(segments[i], segments[j])
            if old_collinear_overlap(a, b, c, d):
                raise ValidationError(
                    f"edges {layout.edges[i].key} and {layout.edges[j].key} "
                    "are collinear and overlap"
                )


def old_segment_intersection(seg1, seg2):
    (a, b), (c, d) = seg1, seg2
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    len_r = math.hypot(rx, ry)
    len_s = math.hypot(sx, sy)
    if len_r == 0.0 or len_s == 0.0:
        raise DegeneracyError("zero-length segment")
    qx, qy = c[0] - a[0], c[1] - a[1]
    denom = rx * sy - ry * sx
    if abs(denom) <= 1e-14 * len_r * len_s:
        if abs(rx * qy - ry * qx) <= 1e-9 * len_r * max(math.hypot(qx, qy), len_s):
            t0 = (qx * rx + qy * ry) / (len_r * len_r)
            t1 = t0 + (sx * rx + sy * ry) / (len_r * len_r)
            lo, hi = min(t0, t1), max(t0, t1)
            if min(hi, 1.0) - max(lo, 0.0) > 1e-9:
                raise DegeneracyError("collinear segments overlap")
        return None
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if not (PARAM_EPS <= t <= 1.0 - PARAM_EPS and PARAM_EPS <= u <= 1.0 - PARAM_EPS):
        return None
    return (a[0] + t * rx, a[1] + t * ry), t, u


def old_bbox_disjoint(s1, s2):
    (a, b), (c, d) = s1, s2
    return (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    )


def old_find_avoidable_crossings(layout, delta0):
    edges = layout.edges
    segments = [layout.endpoints(edge) for edge in edges]
    found = []
    for i in range(len(edges)):
        e1, s1 = edges[i], segments[i]
        for j in range(i + 1, len(edges)):
            e2, s2 = edges[j], segments[j]
            if set(e1.key) & set(e2.key) or old_bbox_disjoint(s1, s2):
                continue
            (ea, sa), (eb, sb) = sorted(((e1, s1), (e2, s2)), key=lambda pair: pair[0].key)
            hit = old_segment_intersection(sa, sb)
            if hit is None:
                continue
            point, t, u = hit
            if min(t, 1.0 - t) <= delta0 or min(u, 1.0 - u) <= delta0:
                continue
            found.append(AvoidableCrossing(ea, eb, point, t, u))
    found.sort(key=lambda c: (c.edge_a.key, c.edge_b.key))
    return tuple(found)


def outcome(fn, *args):
    """Return value, or exception type and message, for == comparison."""
    try:
        return ("ok", fn(*args))
    except EdgemorphError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_oracle(layout, deltas=(0.1, 0.25, 0.4)):
    assert outcome(validate_layout, layout) == outcome(old_validate_layout, layout)
    for delta0 in deltas:
        assert outcome(find_avoidable_crossings, layout, delta0) == outcome(
            old_find_avoidable_crossings, layout, delta0
        )


def grid_nodes(side, spacing=10):
    return tuple(
        NodeSpec(f"g{x}_{y}", float(x * spacing), float(y * spacing))
        for x in range(side)
        for y in range(side)
    )


def grid_layout(rng, side, n_edges):
    """Integer-grid nodes, random edges: many parallel and collinear pairs."""
    nodes = grid_nodes(side)
    keys = set()
    while len(keys) < n_edges:
        a, b = rng.sample(nodes, 2)
        keys.add(EdgeSpec(a.id, b.id).key)
    edges = [EdgeSpec(*key) for key in keys]
    rng.shuffle(edges)
    return GraphLayout(nodes, tuple(edges))


def valid_grid_layout(rng, side, tries):
    """Grid layout grown edge by edge, keeping it valid under the oracle."""
    nodes = grid_nodes(side)
    edges = []
    for _ in range(tries):
        a, b = rng.sample(nodes, 2)
        edge = EdgeSpec(a.id, b.id)
        if edge in edges:
            continue
        try:
            old_validate_layout(GraphLayout(nodes, (*edges, edge)))
        except ValidationError:
            continue
        edges.append(edge)
    return GraphLayout(nodes, tuple(edges))


def two_edge_layout(a, b, c, d):
    return GraphLayout(
        (NodeSpec("a", *a), NodeSpec("b", *b), NodeSpec("c", *c), NodeSpec("d", *d)),
        (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
    )


class TestOracleEquality:
    @pytest.mark.parametrize("n_nodes", [6, 15, 40, 70])
    @pytest.mark.parametrize("density", [1.5, 3.5])
    def test_synth_layouts(self, n_nodes, density):
        for seed in (n_nodes * 101 + 1, n_nodes * 101 + 2):
            assert_same_as_oracle(synth_layout(seed, n_nodes=n_nodes, density=density))
            assert_same_as_oracle(
                synth_layout(
                    seed, n_nodes=n_nodes, density=density, spacing=200.0, bias=1.5
                )
            )

    def test_integer_grid_layouts(self):
        rng = random.Random(7)
        verdicts = set()
        for trial in range(150):
            layout = grid_layout(rng, rng.randint(3, 6), rng.randint(2, 14))
            verdicts.add(outcome(old_validate_layout, layout)[0])
            assert_same_as_oracle(layout)
        assert verdicts == {"ok", "ValidationError"}

    def test_valid_integer_grid_layouts(self):
        rng = random.Random(8)
        for trial in range(12):
            layout = valid_grid_layout(rng, rng.randint(4, 7), 60)
            assert outcome(validate_layout, layout) == ("ok", None)
            assert_same_as_oracle(layout)

    def test_bundled_sample(self):
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        assert_same_as_oracle(layout)
        assert len(find_avoidable_crossings(layout, 0.25)) == 522

    def test_bench_scale_synth_layout(self):
        # The 600-edge shape of the dense benchmark workload: about 49 000
        # touching pairs, so every array branch sees thousands of pairs.
        layout = synth_layout(1, n_nodes=150, density=4.0, spacing=200.0, bias=1.5)
        assert len(layout.edges) == 600
        assert_same_as_oracle(layout)


class TestNearCollinearPair:
    A, B, C, D = (0.0, 0.0), (100.0, 0.0), (50.0, 1e-8), (150.0, 1e-8)

    def test_rejected_although_strict_boxes_are_disjoint(self):
        layout = two_edge_layout(self.A, self.B, self.C, self.D)
        assert old_bbox_disjoint((self.A, self.B), (self.C, self.D))
        assert as_list(_touching_pairs([(self.A, self.B), (self.C, self.D)])) == [(0, 1)]
        expected = outcome(old_validate_layout, layout)
        assert expected[0] == "ValidationError"
        assert outcome(validate_layout, layout) == expected

    def test_scan_refuses_the_overlap(self):
        # The old scan's strict box filter hid this overlap and returned ();
        # the shared pass reaches it, so the scan agrees with validation.
        layout = two_edge_layout(self.A, self.B, self.C, self.D)
        assert old_find_avoidable_crossings(layout, 0.25) == ()
        with pytest.raises(DegeneracyError):
            find_avoidable_crossings(layout, 0.25)

    def test_scan_accepts_what_validation_accepts(self):
        # A unit edge and a 1e4 px collinear one overlapping it by 5e-6 px:
        # under the 1e-9 relative tolerance of the long edge. The old
        # parallel branch measured the overlap along the first segment and
        # raised on this valid layout; the shared test does not.
        c = 1.0 - 5e-6
        layout = two_edge_layout((0.0, 0.0), (1.0, 0.0), (c, 0.0), (c + 1e4, 0.0))
        validate_layout(layout)
        with pytest.raises(DegeneracyError):
            old_find_avoidable_crossings(layout, 0.25)
        assert find_avoidable_crossings(layout, 0.25) == ()

    @pytest.mark.parametrize(
        "short, long",
        [
            (((0.0, 0.0), (1.0, 0.0)), ((0.5, 5e-9), (1000.5, 5e-9))),
            (((0.0, 0.0), (1.0, 1.0)), ((0.5 + 4e-9, 0.5 - 4e-9), (1000.5 + 4e-9, 1000.5 - 4e-9))),
        ],
    )
    def test_verdict_does_not_depend_on_edge_order(self, short, long):
        # Measured against the short edge, the long one lies off its line;
        # against the long edge, the short one lies on it. The old test used
        # whichever edge came first.
        assert old_collinear_overlap(*short, *long) is False
        assert old_collinear_overlap(*long, *short) is True
        assert _collinear_overlap(*short, *long) is _collinear_overlap(*long, *short) is True
        nodes = tuple(NodeSpec(n, *p) for n, p in zip("abcd", (*short, *long)))
        for edges in ((EdgeSpec("a", "b"), EdgeSpec("c", "d")), (EdgeSpec("c", "d"), EdgeSpec("a", "b"))):
            with pytest.raises(ValidationError):
                validate_layout(GraphLayout(nodes, edges))
            with pytest.raises(DegeneracyError):
                find_avoidable_crossings(GraphLayout(nodes, edges), 0.25)


class TestExtremeCoordinates:
    """Huge and subnormal coordinates, where the float arithmetic overflows.

    The reference here is the per-pair scalar code over the same shared
    pass: the array gates must reach the same verdicts as ``math`` floats,
    inf and NaN included, and must do so without numpy warnings.
    """

    @staticmethod
    def scalar_validate(layout):
        segments = [layout.endpoints(edge) for edge in layout.edges]
        for i, j in as_list(_touching_pairs(segments)):
            if _collinear_overlap(*segments[i], *segments[j]):
                raise ValidationError(
                    f"edges {layout.edges[i].key} and {layout.edges[j].key} "
                    "are collinear and overlap"
                )

    @staticmethod
    def scalar_scan(layout, delta0):
        edges = layout.edges
        segments = [layout.endpoints(edge) for edge in edges]
        found = []
        for i, j in as_list(_touching_pairs(segments)):
            if set(edges[i].key) & set(edges[j].key):
                continue
            i, j = sorted((i, j), key=lambda k: edges[k].key)
            hit = segment_intersection(segments[i], segments[j])
            if hit is None:
                continue
            point, t, u = hit
            if min(t, 1.0 - t) <= delta0 or min(u, 1.0 - u) <= delta0:
                continue
            found.append(AvoidableCrossing(edges[i], edges[j], point, t, u))
        found.sort(key=lambda c: (c.edge_a.key, c.edge_b.key))
        return tuple(found)

    def test_same_as_scalar_code_without_warnings(self):
        rng = random.Random(3)
        seen = set()
        for trial in range(300):
            scale = rng.choice([1e-310, 1e-160, 1e154, 1e200, 1e307, 1.7e308])
            ys = rng.choice([(0.0,), (-1.0, 0.0, 1.0)])
            nodes = tuple(
                NodeSpec(
                    f"v{k}",
                    rng.choice((-1.0, 1.0)) * scale * rng.random(),
                    rng.choice(ys) * scale * rng.random(),
                )
                for k in range(rng.randint(4, 8))
            )
            pairs = [(a.id, b.id) for a in nodes for b in nodes if a.id < b.id]
            count = rng.randint(2, min(10, len(pairs)))
            edges = tuple(EdgeSpec(*key) for key in rng.sample(pairs, count))
            layout = GraphLayout(nodes, edges)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                verdict = outcome(validate_layout, layout)
                assert verdict == outcome(self.scalar_validate, layout)
                for delta0 in (0.1, 0.25, 0.4):
                    found = outcome(find_avoidable_crossings, layout, delta0)
                    assert found == outcome(self.scalar_scan, layout, delta0)
                    seen.add((verdict[0], found[0], found[0] == "ok" and bool(found[1])))
        assert {("ok", "ok", True), ("ValidationError", "DegeneracyError", False)} <= seen


class TestTouchingPairs:
    def test_equals_brute_force_over_widened_boxes(self):
        def widened(segment):
            (x1, y1), (x2, y2) = segment
            m = _BOX_MARGIN * math.hypot(x2 - x1, y2 - y1)
            return min(x1, x2) - m, max(x1, x2) + m, min(y1, y2) - m, max(y1, y2) + m

        def brute(segments):
            boxes = [widened(s) for s in segments]
            return [
                (i, j)
                for i in range(len(boxes))
                for j in range(i + 1, len(boxes))
                if boxes[i][0] <= boxes[j][1] and boxes[j][0] <= boxes[i][1]
                and boxes[i][2] <= boxes[j][3] and boxes[j][2] <= boxes[i][3]
            ]

        # The long vertical segment's widened box starts left of boxes whose
        # raw x-min is below its own: the sweep must sort on the widened x-min.
        tricky = [
            ((0.0, 0.0), (1.0, 1.0)),
            ((5.0, 0.0), (6.0, 0.0)),
            ((5.5, -3e8), (5.5, 3e8)),
        ]
        assert as_list(_touching_pairs(tricky)) == brute(tricky) == [(0, 2), (1, 2)]
        rng = random.Random(11)
        for trial in range(40):
            segments = []
            for _ in range(rng.randint(2, 40)):
                x, y = rng.choice([0.0, 1e-7, 3.0]) + rng.random(), rng.random()
                size = 10 ** rng.uniform(-3, 9)
                angle = rng.uniform(0, 2 * math.pi)
                segments.append(((x, y), (x + size * math.cos(angle), y + size * math.sin(angle))))
            assert as_list(_touching_pairs(segments)) == brute(segments)

    def test_small_inputs(self):
        assert as_list(_touching_pairs([])) == []
        assert as_list(_touching_pairs([((0.0, 0.0), (1.0, 1.0))])) == []
        # Closed boxes: touching at one corner counts.
        blocks = list(_touching_pairs([((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 3.0))]))
        assert as_list(blocks) == [(0, 1)]
        assert all(index.dtype == np.intp for block in blocks for index in block)

    def test_one_pass_per_layout(self, monkeypatch):
        # Parsing, scheduling and checking a layout, at two resting ratios,
        # share one pass, which none of them can change.
        calls = []

        def counted(segments):
            calls.append(len(segments))
            return _touching_pairs(segments)

        monkeypatch.setattr(graph, "_touching_pairs", counted)
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        for cfg in (PRESETS["fasteas"], replace(PRESETS["slowlin"], delta0=0.1)):
            assert validate_schedule(layout, cfg, compute_schedule(layout, cfg)).passed
        assert len(find_avoidable_crossings(layout, 0.1)) == 1130
        assert calls == [len(layout.edges)]
        _, near, parallel, crossings = layout.pair_pass
        for array in (near, parallel, *crossings):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0

    def test_blocks_cover_the_sweep(self, monkeypatch):
        # Blocks of one box each: every pair still comes once, so the pass
        # and the brute-force oracles agree whatever the block size.
        monkeypatch.setattr(graph, "PAIR_BLOCK", 1)
        layout = synth_layout(5, n_nodes=40, density=3.5)
        segments = [layout.endpoints(edge) for edge in layout.edges]
        assert len(list(_touching_pairs(segments))) == len(segments)
        assert_same_as_oracle(layout)


coordinate = st.floats(min_value=-1e4, max_value=1e4)
sub_tolerance = st.floats(min_value=-3e-9, max_value=3e-9)


@settings(max_examples=300, deadline=None)
@given(
    ax=coordinate,
    ay=coordinate,
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    length=st.floats(min_value=1e-3, max_value=1e4),
    t0=st.floats(min_value=-1.5, max_value=2.5),
    t1=st.floats(min_value=-1.5, max_value=2.5),
    offset=sub_tolerance,
    tilt=sub_tolerance,
)
def test_near_collinear_pairs_match_oracle(ax, ay, angle, length, t0, t1, offset, tilt):
    # cd runs along ab, from parameter t0 to t1, shifted off ab's line by
    # offsets around the 1e-9 relative collinearity tolerance.
    ux, uy = math.cos(angle), math.sin(angle)
    nx, ny = -uy * length, ux * length
    a = (ax, ay)
    b = (ax + ux * length, ay + uy * length)
    c = (ax + t0 * ux * length + offset * nx, ay + t0 * uy * length + offset * ny)
    d = (
        ax + t1 * ux * length + (offset + tilt) * nx,
        ay + t1 * uy * length + (offset + tilt) * ny,
    )
    points = (a, b, c, d)
    assume(abs(t1 - t0) > 1e-6 and len(set(points)) == 4)
    layout = two_edge_layout(*points)

    assert _collinear_overlap(a, b, c, d) == _collinear_overlap(c, d, a, b)
    for s1, s2 in (((a, b), (c, d)), ((c, d), (a, b))):
        if _collinear_overlap(*s1, *s2):
            assert as_list(_touching_pairs([s1, s2])) == [(0, 1)]

    verdict = outcome(validate_layout, layout)
    assert verdict == outcome(old_validate_layout, layout)
    if verdict[0] == "ok":
        found = find_avoidable_crossings(layout, 0.25)
        old = outcome(old_find_avoidable_crossings, layout, 0.25)
        if old[0] == "ok":
            assert found == old[1]
