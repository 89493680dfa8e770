"""Pairwise edge intersections and the crossings a schedule can avoid.

A crossing between two edges is avoidable when the intersection point lies,
on both edges, strictly farther than the resting stub ratio from the nearer
endpoint: the resting drawing does not show it, so scheduling decides whether
the stubs ever meet there. Crossings at or inside the resting ratio exist
permanently and are excluded.

Edges sharing an endpoint never produce crossings; in general position their
only intersection is the shared node, where stubs legitimately meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyError, RangeError
from .graph import EdgeSpec, GraphLayout, Point

# Crossings closer than this, in parameter distance, to a segment endpoint are
# treated as non-crossing; inputs are expected in general position.
PARAM_EPS = 1e-12


@dataclass(frozen=True)
class AvoidableCrossing:
    """A schedulable crossing between two edges.

    Ratios locate the intersection along each edge, measured from the
    lexicographically smaller endpoint; edge_a precedes edge_b in the same
    order.
    """

    edge_a: EdgeSpec
    edge_b: EdgeSpec
    point: Point
    ratio_a: float
    ratio_b: float


def segment_intersection(
    seg1: tuple[Point, Point], seg2: tuple[Point, Point]
) -> tuple[Point, float, float] | None:
    """Proper intersection of two open segments, with parametric ratios.

    Returns (point, t, u) where t and u locate the point along seg1 and seg2,
    or None when the segments are disjoint, parallel, or touch only at an
    endpoint. Collinear segments overlapping in more than one point raise
    DegeneracyError; layout validation rejects them up front.
    """
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
        # Parallel; overlapping collinear pairs are not resolvable to a point.
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
    point = (a[0] + t * rx, a[1] + t * ry)
    return point, t, u


def _bbox_disjoint(s1: tuple[Point, Point], s2: tuple[Point, Point]) -> bool:
    (a, b), (c, d) = s1, s2
    return (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    )


def find_avoidable_crossings(
    layout: GraphLayout, delta0: float
) -> tuple[AvoidableCrossing, ...]:
    """All avoidable crossings of a layout, ordered by edge id pairs.

    Scans every unordered edge pair (adjacent pairs skipped), keeps proper
    crossings whose nearer-endpoint distance exceeds delta0 on both edges.
    Quadratic in the edge count, which is fine at the few hundred edges this
    model targets.
    """
    if not 0.0 < delta0 < 0.5:
        raise RangeError(f"delta0 {delta0} outside (0, 1/2)")
    edges = layout.edges
    segments = [layout.endpoints(edge) for edge in edges]
    found: list[AvoidableCrossing] = []
    for i in range(len(edges)):
        e1 = edges[i]
        s1 = segments[i]
        for j in range(i + 1, len(edges)):
            e2 = edges[j]
            if (
                e1.source == e2.source
                or e1.source == e2.target
                or e1.target == e2.source
                or e1.target == e2.target
            ):
                continue
            s2 = segments[j]
            if _bbox_disjoint(s1, s2):
                continue
            hit = segment_intersection(s1, s2)
            if hit is None:
                continue
            point, t, u = hit
            if min(t, 1.0 - t) <= delta0 or min(u, 1.0 - u) <= delta0:
                continue
            if e1.key <= e2.key:
                found.append(AvoidableCrossing(e1, e2, point, t, u))
            else:
                found.append(AvoidableCrossing(e2, e1, point, u, t))
    found.sort(key=lambda c: (c.edge_a.key, c.edge_b.key))
    return tuple(found)
