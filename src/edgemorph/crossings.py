"""Pairwise edge intersections and the crossings a schedule can avoid.

A crossing between two edges is avoidable when the intersection point lies,
on both edges, strictly farther than the resting stub ratio from the nearer
endpoint: the resting drawing does not show it, so scheduling decides whether
the stubs ever meet there. Crossings at or inside the resting ratio exist
permanently and are excluded.

Edges sharing an endpoint never produce crossings; in general position their
only intersection is the shared node, where stubs legitimately meet.

:func:`segment_intersection` is the scalar reference for one pair. The
layout's segment-pair pass (:attr:`GraphLayout.pair_pass`) finds every proper
crossing once, with the same arithmetic in the same operation order over
blocks of touching pairs, so its points and ratios equal those of
``segment_intersection(seg_a, seg_b)``, edge a the smaller key, bit for bit.
The scan keeps those beyond the resting ratio; only pairs under the
parallel bound go through the scalar collinearity test. Scheduling and the
validator read the scan's columns, with edges as indices into
``layout.edges``; :func:`find_avoidable_crossings` is their public view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RangeError
from .graph import PARAM_EPS, EdgeSpec, GraphLayout, Point, _collinear_overlap


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


def _crossing_table(layout: GraphLayout, delta0: float) -> tuple[np.ndarray, ...]:
    """The avoidable crossings as columns (a, b, px, py, ratio_a, ratio_b).

    a and b index ``layout.edges``; rows are ordered by edge id pairs. They are
    the proper crossings of the layout's segment-pair pass whose distance from
    the nearer endpoint exceeds delta0 on both edges.
    """
    if not 0.0 < delta0 < 0.5:
        raise RangeError(f"delta0 {delta0} outside (0, 1/2)")
    segments, _, parallel, columns = layout.pair_pass
    for p, q in parallel.T.tolist():
        if _collinear_overlap(*segments[p], *segments[q]):
            raise DegeneracyError("collinear segments overlap")
    ratios = np.array(columns[4:])
    keep = (np.minimum(ratios, 1.0 - ratios) > delta0).all(axis=0)
    return tuple(column[keep] for column in columns)


def find_avoidable_crossings(
    layout: GraphLayout, delta0: float
) -> tuple[AvoidableCrossing, ...]:
    """All avoidable crossings of a layout, ordered by edge id pairs."""
    columns = (column.tolist() for column in _crossing_table(layout, delta0))
    return tuple(
        AvoidableCrossing(layout.edges[p], layout.edges[q], (x, y), ta, tb)
        for p, q, x, y, ta, tb in zip(*columns)
    )
