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
from .graph import EdgeSpec, GraphLayout, Point, _collinear_overlap, _touching_pairs

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
        if _collinear_overlap(a, b, c, d):
            raise DegeneracyError("collinear segments overlap")
        return None
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if not (PARAM_EPS <= t <= 1.0 - PARAM_EPS and PARAM_EPS <= u <= 1.0 - PARAM_EPS):
        return None
    point = (a[0] + t * rx, a[1] + t * ry)
    return point, t, u


def find_avoidable_crossings(
    layout: GraphLayout, delta0: float
) -> tuple[AvoidableCrossing, ...]:
    """All avoidable crossings of a layout, ordered by edge id pairs.

    Scans the edge pairs whose bounding boxes touch (the segment-pair pass
    that layout validation uses too; adjacent pairs skipped) and keeps proper
    crossings whose nearer-endpoint distance exceeds delta0 on both edges.
    """
    if not 0.0 < delta0 < 0.5:
        raise RangeError(f"delta0 {delta0} outside (0, 1/2)")
    edges = layout.edges
    segments = [layout.endpoints(edge) for edge in edges]
    found: list[AvoidableCrossing] = []
    for i, j in _touching_pairs(segments):
        e1, e2 = edges[i], edges[j]
        if e1.source in (e2.source, e2.target) or e1.target in (e2.source, e2.target):
            continue
        hit = segment_intersection(segments[i], segments[j])
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
