import math
import random

import numpy as np
import pytest

from edgemorph import (
    AvoidableCrossing,
    DegeneracyError,
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    RangeError,
    edge_length,
    find_avoidable_crossings,
    parse_layout,
    segment_intersection,
)
from conftest import DATA_DIR
from gen_layouts import synth_layout


def orientation(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def brute_force_crossings(layout, delta0):
    """Independent checker: orientation predicates, then parameter solve."""
    out = []
    edges = layout.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            if set(e1.key) & set(e2.key):
                continue
            a, b = layout.endpoints(e1)
            c, d = layout.endpoints(e2)
            o1 = orientation(c, d, a)
            o2 = orientation(c, d, b)
            o3 = orientation(a, b, c)
            o4 = orientation(a, b, d)
            if not (o1 * o2 < 0 and o3 * o4 < 0):
                continue
            t = o1 / (o1 - o2)
            u = o3 / (o3 - o4)
            if min(t, 1 - t) <= delta0 or min(u, 1 - u) <= delta0:
                continue
            point = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            if e1.key <= e2.key:
                out.append((e1.key, e2.key, point, t, u))
            else:
                out.append((e2.key, e1.key, point, u, t))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def scalar_crossings(layout, delta0):
    """Exact oracle: :func:`segment_intersection` on every non-adjacent pair,
    the edge with the smaller key first."""
    edges, found = layout.edges, []
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            if set(e1.key) & set(e2.key):
                continue
            ea, eb = sorted((e1, e2), key=lambda edge: edge.key)
            hit = segment_intersection(layout.endpoints(ea), layout.endpoints(eb))
            if hit is None:
                continue
            point, t, u = hit
            if min(t, 1.0 - t) <= delta0 or min(u, 1.0 - u) <= delta0:
                continue
            found.append(AvoidableCrossing(ea, eb, point, t, u))
    return tuple(sorted(found, key=lambda c: (c.edge_a.key, c.edge_b.key)))


class TestSegmentIntersection:
    def test_perpendicular_midpoints(self):
        hit = segment_intersection(((0, 0), (10, 0)), ((5, -5), (5, 5)))
        assert hit is not None
        point, t, u = hit
        assert point == (5.0, 0.0)
        assert t == 0.5 and u == 0.5

    def test_disjoint(self):
        assert segment_intersection(((0, 0), (10, 0)), ((20, 1), (30, 1))) is None

    def test_shared_endpoint_is_not_a_crossing(self):
        assert segment_intersection(((0, 0), (10, 0)), ((10, 0), (20, 5))) is None

    def test_endpoint_touch_mid_segment(self):
        # One segment ends exactly on the other's interior: not a proper crossing.
        assert segment_intersection(((0, 0), (10, 0)), ((5, 0), (5, 8))) is None

    def test_parallel(self):
        assert segment_intersection(((0, 0), (10, 0)), ((0, 1), (10, 1))) is None

    def test_collinear_disjoint(self):
        assert segment_intersection(((0, 0), (10, 0)), ((11, 0), (20, 0))) is None

    def test_collinear_overlap_raises(self):
        with pytest.raises(DegeneracyError):
            segment_intersection(((0, 0), (10, 0)), ((5, 0), (15, 0)))

    def test_orientation_of_result(self):
        hit = segment_intersection(((0, 0), (10, 10)), ((0, 10), (10, 0)))
        point, t, u = hit
        assert point == pytest.approx((5.0, 5.0))
        hit_swapped = segment_intersection(((0, 10), (10, 0)), ((0, 0), (10, 10)))
        assert hit_swapped[1] == pytest.approx(u)
        assert hit_swapped[2] == pytest.approx(t)


class TestFindAvoidableCrossings:
    def test_midpoint_crossing_is_avoidable(self, cross_layout):
        found = find_avoidable_crossings(cross_layout, 0.25)
        assert len(found) == 1
        crossing = found[0]
        assert crossing.edge_a.key == ("a", "b")
        assert crossing.edge_b.key == ("c", "d")
        assert crossing.point == (200.0, 0.0)
        assert crossing.ratio_a == 0.5 and crossing.ratio_b == 0.5

    def test_near_endpoint_crossing_excluded(self):
        layout = GraphLayout(
            (
                NodeSpec("a", 0, 0),
                NodeSpec("b", 10, 0),
                NodeSpec("c", 2, -5),
                NodeSpec("d", 2, 5),
            ),
            (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
        # ratio 0.2 on the horizontal edge: covered at rest for delta0=1/4
        assert find_avoidable_crossings(layout, 0.25) == ()
        assert len(find_avoidable_crossings(layout, 0.15)) == 1

    def test_k4_square(self, k4_layout):
        found = find_avoidable_crossings(k4_layout, 0.25)
        assert len(found) == 1
        crossing = found[0]
        assert crossing.edge_a.key == ("p", "r")
        assert crossing.edge_b.key == ("q", "s")
        assert crossing.ratio_a == pytest.approx(0.5)
        assert crossing.ratio_b == pytest.approx(0.5)

    def test_matches_brute_force_on_random_layouts(self):
        rng = random.Random(123)
        for trial in range(60):
            layout = synth_layout(
                rng.randrange(10**6), n_nodes=rng.randint(4, 10), density=1.5
            )
            if len(layout.edges) > 15:
                continue
            expected = brute_force_crossings(layout, 0.25)
            found = find_avoidable_crossings(layout, 0.25)
            assert len(found) == len(expected)
            for got, want in zip(found, expected):
                assert got.edge_a.key == want[0]
                assert got.edge_b.key == want[1]
                assert got.ratio_a == pytest.approx(want[3], abs=1e-9)
                assert got.ratio_b == pytest.approx(want[4], abs=1e-9)

    def test_points_satisfy_both_segment_equations(self):
        layout = synth_layout(2024, n_nodes=12, density=2.5)
        for crossing in find_avoidable_crossings(layout, 0.25):
            scale = max(
                edge_length(layout, crossing.edge_a),
                edge_length(layout, crossing.edge_b),
            )
            for edge, ratio in (
                (crossing.edge_a, crossing.ratio_a),
                (crossing.edge_b, crossing.ratio_b),
            ):
                (x1, y1), (x2, y2) = layout.endpoints(edge)
                px = x1 + ratio * (x2 - x1)
                py = y1 + ratio * (y2 - y1)
                assert math.dist((px, py), crossing.point) <= 1e-9 * scale

    def test_deterministic_order(self):
        layout = synth_layout(555, n_nodes=14, density=2.0)
        first = find_avoidable_crossings(layout, 0.25)
        second = find_avoidable_crossings(layout, 0.25)
        assert first == second
        keys = [(c.edge_a.key, c.edge_b.key) for c in first]
        assert keys == sorted(keys)

    def test_collinear_overlap_propagates(self):
        # Direct construction skips the O(m^2) geometric validation, so the
        # scan itself must refuse to resolve the overlap to a point.
        layout = GraphLayout(
            (
                NodeSpec("a", 0, 0),
                NodeSpec("b", 10, 0),
                NodeSpec("c", 5, 0),
                NodeSpec("d", 15, 0),
            ),
            (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
        with pytest.raises(DegeneracyError):
            find_avoidable_crossings(layout, 0.25)

    def test_delta0_at_a_crossings_nearer_ratio(self):
        # The scan keeps a crossing while delta0 lies strictly below its
        # nearer ratio on both edges: exactly at that ratio it is gone, one
        # float below it is kept.
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        crossings = scalar_crossings(layout, 0.1)
        for crossing in (crossings[0], crossings[len(crossings) // 2], crossings[-1]):
            nearer = min(min(r, 1.0 - r) for r in (crossing.ratio_a, crossing.ratio_b))
            below, above = np.nextafter(nearer, 0.0), np.nextafter(nearer, 1.0)
            for delta0 in (below, nearer, above):
                found = find_avoidable_crossings(layout, float(delta0))
                assert found == scalar_crossings(layout, float(delta0))
                assert (crossing in found) == (delta0 == below)

    def test_delta0_out_of_range(self):
        layout = synth_layout(556, n_nodes=6, density=1.5)
        with pytest.raises(RangeError):
            find_avoidable_crossings(layout, 0.0)
