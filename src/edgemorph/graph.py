"""Graph layouts with fixed node positions and symmetric edge stubs.

A layout is an embedded simple graph: nodes carry pixel coordinates (screen
convention, y grows downward) and an optional highlight role, edges are
unordered pairs of node ids. Every edge can be shown partially as two stubs
of equal length, one incident to each endpoint; the stub length ratio is the
stub length divided by the edge length and tops out at 1/2, where the two
stubs meet at the midpoint and the edge is fully drawn.

All values are immutable after construction and safe to share across threads.
Construction checks the cheap structural invariants; :func:`parse_layout` and
:func:`validate_layout` additionally reject pairs of collinear edges that
overlap in more than one point, whose crossing would be a whole segment.
That check and the crossing scan share one segment-pair pass, made once per
layout and kept on it (:attr:`GraphLayout.pair_pass`): a numpy sweep over
bounding boxes and the per-pair geometry of the pairs whose boxes touch run
together, block by block. It keeps the few near-parallel pairs for the
scalar collinearity test, which stays the bit-level reference, and the
layout's proper crossings, which the scan filters by resting ratio.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ParseError, RangeError, ValidationError

COLOR_ROLES = ("plain", "blue", "orange")

Point = tuple[float, float]


@dataclass(frozen=True)
class NodeSpec:
    id: str
    x: float
    y: float
    color_role: str = "plain"

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"node id must be a non-empty string, got {self.id!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"node {self.id!r} has non-finite position")
        if self.color_role not in COLOR_ROLES:
            raise ValidationError(
                f"node {self.id!r} has unknown color role {self.color_role!r}"
            )

    @property
    def position(self) -> Point:
        return (self.x, self.y)


@dataclass(frozen=True)
class EdgeSpec:
    """Unordered node pair; endpoints are stored in lexicographic order."""

    source: str
    target: str

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValidationError(f"self-loop at node {self.source!r}")
        if self.source > self.target:
            a, b = self.target, self.source
            object.__setattr__(self, "source", a)
            object.__setattr__(self, "target", b)

    @property
    def key(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass(frozen=True)
class GraphLayout:
    nodes: tuple[NodeSpec, ...]
    edges: tuple[EdgeSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen_ids: set[str] = set()
        for node in self.nodes:
            if node.id in seen_ids:
                raise ValidationError(f"duplicate node id {node.id!r}")
            seen_ids.add(node.id)
        positions: dict[Point, str] = {}
        for node in self.nodes:
            other = positions.get(node.position)
            if other is not None:
                raise ValidationError(
                    f"nodes {other!r} and {node.id!r} coincide at {node.position}"
                )
            positions[node.position] = node.id
        seen_edges: set[tuple[str, str]] = set()
        for edge in self.edges:
            for endpoint in edge.key:
                if endpoint not in seen_ids:
                    raise ValidationError(
                        f"edge {edge.key} references unknown node {endpoint!r}"
                    )
            if edge.key in seen_edges:
                raise ValidationError(f"duplicate edge {edge.key}")
            seen_edges.add(edge.key)

    @cached_property
    def nodes_by_id(self) -> dict[str, NodeSpec]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def edge_keys(self) -> frozenset[tuple[str, str]]:
        return frozenset(edge.key for edge in self.edges)

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        grow: dict[str, set[str]] = {node.id: set() for node in self.nodes}
        for edge in self.edges:
            grow[edge.source].add(edge.target)
            grow[edge.target].add(edge.source)
        return {nid: frozenset(neigh) for nid, neigh in grow.items()}

    @cached_property
    def pair_pass(self) -> tuple:
        """The layout's :func:`_pair_pass`, made on first use and kept."""
        return _pair_pass(self)

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self.nodes_by_id[node_id]
        except KeyError:
            raise LookupError(f"unknown node {node_id!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edge_keys

    def endpoints(self, edge: EdgeSpec) -> tuple[Point, Point]:
        """Positions of the lexicographically smaller endpoint, then the larger."""
        return self.node(edge.source).position, self.node(edge.target).position


@dataclass(frozen=True)
class StubPair:
    """The two drawn fragments of one edge at a given stub length ratio.

    ``segment_source`` runs from the lexicographically smaller endpoint toward
    the larger one, ``segment_target`` the other way; both have length
    ratio * edge length and lie on the supporting line of the edge.
    """

    edge: EdgeSpec
    ratio: float
    segment_source: tuple[Point, Point]
    segment_target: tuple[Point, Point]


def _require_edge(layout: GraphLayout, edge: EdgeSpec | tuple[str, str]) -> EdgeSpec:
    if isinstance(edge, tuple):
        edge = EdgeSpec(*edge)
    if edge.key not in layout.edge_keys:
        raise LookupError(f"edge {edge.key} not in layout")
    return edge


def edge_length(layout: GraphLayout, edge: EdgeSpec | tuple[str, str]) -> float:
    """Euclidean length of the edge segment in pixels."""
    edge = _require_edge(layout, edge)
    (x1, y1), (x2, y2) = layout.endpoints(edge)
    return math.hypot(x2 - x1, y2 - y1)


def _lerp(a: Point, b: Point, t: float) -> Point:
    # Affine form keeps r = 0 and r = 1/2 exact: both stub tips evaluate to
    # the identical midpoint expression at 1/2.
    return ((1.0 - t) * a[0] + t * b[0], (1.0 - t) * a[1] + t * b[1])


def stub_pair(
    layout: GraphLayout, edge: EdgeSpec | tuple[str, str], ratio: float
) -> StubPair:
    """Both stubs of an edge at the given stub length ratio.

    The source stub spans parameter [0, ratio] of source to target, the target
    stub spans [1 - ratio, 1]. At ratio 1/2 the two tips meet exactly at the
    midpoint. Ratios above 1/2 or at or below 0 are rejected; the resting
    lower bound is the caller's animation configuration, not known here.
    """
    edge = _require_edge(layout, edge)
    if not 0.0 < ratio <= 0.5:
        raise RangeError(f"stub ratio {ratio} outside (0, 1/2]")
    p_source, p_target = layout.endpoints(edge)
    return StubPair(
        edge=edge,
        ratio=ratio,
        segment_source=(p_source, _lerp(p_source, p_target, ratio)),
        segment_target=(p_target, _lerp(p_target, p_source, ratio)),
    )


def _collinear_overlap(
    a: Point, b: Point, c: Point, d: Point
) -> bool:
    """True if segments ab and cd lie on one line and share more than a point.

    The tolerances are relative to the longer segment, which is taken as the
    reference line (ties broken by coordinates), so the verdict does not
    depend on which segment comes first.
    """
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    length, other = math.hypot(rx, ry), math.hypot(sx, sy)
    # The parallel test is symmetric once its bound takes the longer length
    # first, as the reordered test would, so it runs before the reordering.
    bound = 1e-9 * length * other if length >= other else 1e-9 * other * length
    if abs(rx * sy - ry * sx) > bound:
        return False
    if (other, c, d) > (length, a, b):
        a, b, c, d = c, d, a, b
        rx, ry, sx, sy, length, other = sx, sy, rx, ry, other, length
    if length == 0.0:
        return False
    qx, qy = c[0] - a[0], c[1] - a[1]
    if abs(rx * qy - ry * qx) > 1e-9 * length * max(math.hypot(qx, qy), length):
        return False
    # Same supporting line: compare 1-D extents along ab. Below about
    # 1e-154 px the squared length is subnormal or 0, so such an edge is
    # measured on its unit direction instead.
    denom = length * length
    if denom >= sys.float_info.min:
        t0 = (qx * rx + qy * ry) / denom
        t1 = t0 + (sx * rx + sy * ry) / denom
    else:
        ux, uy = rx / length, ry / length
        t0 = (qx * ux + qy * uy) / length
        t1 = t0 + (sx * ux + sy * uy) / length
    lo, hi = min(t0, t1), max(t0, t1)
    return min(hi, 1.0) - max(lo, 0.0) > 1e-9


# Boxes are widened by this fraction of their segment's length on each side.
# Segments that _collinear_overlap accepts, r the longer one, hold points
# within 1e-9 * (max(|q|, |r|) + |s|) <= 2e-9 * (|r| + |s|) of each other (q
# from r's start to s's start, at most |r| + |s| long when they overlap), so
# their strict boxes can be that far apart; the margin covers that five
# times over, which leaves room for float rounding in the widened ends.
_BOX_MARGIN = 1e-8


#: Boxes, in x-min order, per block of the segment-pair pass: a block's
#: candidate pairs and their per-pair arrays live only while it is processed.
PAIR_BLOCK = 128

# Crossings closer than this, in parameter distance, to a segment endpoint are
# treated as non-crossing; inputs are expected in general position.
PARAM_EPS = 1e-12


def _touching_pairs(segments):
    """Pairs i < j of segments whose widened closed boxes touch, in blocks.

    Yields index arrays (i, j), in sweep order, in at least one block. A
    sweep in x-min order pairs each box with the later ones that start by
    its x-max and keeps those whose y-ranges meet too, :data:`PAIR_BLOCK`
    boxes at a time, so memory grows with one block's x-overlapping pairs.
    """
    pts = np.asarray(segments, dtype=float).reshape(-1, 2, 2)
    with np.errstate(over="ignore"):  # an infinite margin keeps every pair
        margin = _BOX_MARGIN * np.hypot(*(pts[:, 1] - pts[:, 0]).T)[:, None]
        lo, hi = pts.min(axis=1) - margin, pts.max(axis=1) + margin
    order = np.argsort(lo[:, 0])
    (lo_x, lo_y), (hi_x, hi_y) = lo[order].T.copy(), hi[order].T.copy()
    count = np.searchsorted(lo_x, hi_x, side="right") - np.arange(len(lo_x)) - 1
    for start in range(0, max(len(lo_x), 1), PAIR_BLOCK):
        block = count[start : start + PAIR_BLOCK]
        first = np.repeat(np.arange(start, start + len(block)), block)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(block) - block, block)
        keep = np.flatnonzero((lo_y[second] <= hi_y[first]) & (lo_y[first] <= hi_y[second]))
        a, b = order[first[keep]], order[second[keep]]
        yield np.minimum(a, b), np.maximum(a, b)


def _pair_pass(layout: GraphLayout) -> tuple:
    """(segments, near, parallel, crossings): a layout's one segment-pair pass.

    Every edge's endpoints as tuples; then read-only arrays, from one cross
    product per :func:`_touching_pairs` pair: ``near``, the (2, k) pairs
    (i, j) that the parallel gate of :func:`_collinear_overlap` leaves open,
    ascending; of the pairs without a shared node, ``parallel``, likewise,
    those under the scan's 1e-14 bound, and ``crossings``, the proper
    crossings as columns (a, b, px, py, ratio_a, ratio_b), a the smaller key,
    sorted by key pairs. Lengths come from ``math.hypot`` and the arithmetic
    follows ``crossings.segment_intersection``, so all is bit for bit equal;
    each point is found along edge a, as ``segment_intersection(seg_a,
    seg_b)`` finds it, so it does not depend on the order of the edges.
    """
    edges, m = layout.edges, len(layout.edges)
    segments = tuple(layout.endpoints(edge) for edge in edges)
    pts = np.asarray(segments, dtype=float).reshape(-1, 2, 2)
    lengths = np.array([math.hypot(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in segments])
    keys = [edge.key for edge in edges]
    node_index = {node.id: k for k, node in enumerate(layout.nodes)}
    ends = np.array([(node_index[a], node_index[b]) for a, b in keys], dtype=np.intp)
    source, target = ends.reshape(-1, 2).T.copy()

    def apart(k, i, j):  # the pairs k whose edges share no node
        a, b, c, d = source[i[k]], target[i[k]], source[j[k]], target[j[k]]
        return k[(a != c) & (a != d) & (b != c) & (b != d)]

    near, parallel, found = [], [], []
    with np.errstate(all="ignore"):  # float overflow gives inf or NaN, as in Python
        x0, y0, rx, ry = np.concatenate((pts[:, 0], pts[:, 1] - pts[:, 0]), axis=1).T.copy()
        for i, j in _touching_pairs(pts):
            ri, si = (rx[i], ry[i]), (rx[j], ry[j])
            cross = ri[0] * si[1] - ri[1] * si[0]
            len_i, len_j = lengths[i], lengths[j]
            bound = 1e-9 * np.maximum(len_i, len_j) * np.minimum(len_i, len_j)  # longer first
            k = np.flatnonzero(~(np.abs(cross) > bound))
            near.append((i[k], j[k]))
            flat = np.abs(cross) <= 1e-14 * len_i * len_j
            k = apart(np.flatnonzero(flat), i, j)
            parallel.append((i[k], j[k]))
            qx, qy = x0[j] - x0[i], y0[j] - y0[i]
            t = (qx * si[1] - qy * si[0]) / cross
            u = (qx * ri[1] - qy * ri[0]) / cross
            hit = ~flat & (PARAM_EPS <= t) & (t <= 1.0 - PARAM_EPS)
            k = apart(np.flatnonzero(hit & (PARAM_EPS <= u) & (u <= 1.0 - PARAM_EPS)), i, j)
            found.append((i[k], j[k], t[k], u[k]))
        near, parallel = (np.concatenate(p, axis=1) for p in (near, parallel))
        near, parallel = (p[:, np.argsort(p[0] * m + p[1])] for p in (near, parallel))
        rank = np.empty(m, dtype=np.intp)
        rank[sorted(range(m), key=keys.__getitem__)] = np.arange(m)
        i, j, t, u = (np.concatenate(column) for column in zip(*found))
        swap = rank[i] > rank[j]
        order = np.argsort(np.where(swap, rank[j] * m + rank[i], rank[i] * m + rank[j]))
        i, j, t, u, swap = (column[order] for column in (i, j, t, u, swap))
        (a, b), ratios = np.where(swap, (j, i), (i, j)), np.where(swap, (u, t), (t, u))
        crossings = (a, b, x0[a] + ratios[0] * rx[a], y0[a] + ratios[0] * ry[a], *ratios)
    for array in (near, parallel, *crossings):
        array.setflags(write=False)
    return segments, near, parallel, crossings


def _reject_collinear_overlaps(layout: GraphLayout) -> None:
    """ValidationError naming the first pair of edges that overlap collinearly."""
    segments, near, _, _ = layout.pair_pass
    for p, q in near.T.tolist():
        if _collinear_overlap(*segments[p], *segments[q]):
            raise ValidationError(
                f"edges {layout.edges[p].key} and {layout.edges[q].key} "
                "are collinear and overlap"
            )


def validate_layout(layout: GraphLayout) -> None:
    """Re-check all layout invariants, including the geometric ones."""
    GraphLayout(layout.nodes, layout.edges)  # structural invariants
    _reject_collinear_overlaps(layout)


def json_number(value) -> float:
    """A JSON number as a float; TypeError or ValueError for anything else.

    Strings and booleans are refused, although ``float()`` would take them,
    and so is an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("integer does not fit a float") from exc


def json_object(raw: bytes | str, what: str) -> dict:
    """A document's top-level JSON object; ParseError naming the document otherwise."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also a number with too many digits for int()
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def parse_layout(raw: bytes | str) -> GraphLayout:
    """Parse and fully validate a layout interchange document.

    Format: {"nodes": [{"id", "x", "y", "color"?}], "edges": [{"source",
    "target"}]} with pixel coordinates and optional color roles. Node and edge
    order is preserved, so identical bytes give identical layouts.
    """
    doc = json_object(raw, "layout")
    for key in ("nodes", "edges"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"layout needs a {key!r} array")

    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise ParseError(f"node #{i} is not an object")
        try:
            node_id = entry["id"]
            x, y = entry["x"], entry["y"]
        except KeyError as exc:
            raise ParseError(f"node #{i} is missing field {exc}") from exc
        if not isinstance(node_id, str):
            raise ParseError(f"node #{i} id must be a string")
        try:
            x, y = json_number(x), json_number(y)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"node {node_id!r} coordinates must be numbers: {exc}") from exc
        color = entry.get("color", "plain")
        if color not in COLOR_ROLES:
            raise ParseError(f"node {node_id!r} has unknown color {color!r}")
        nodes.append(NodeSpec(node_id, x, y, color))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise ParseError(f"edge #{i} is not an object")
        try:
            source, target = entry["source"], entry["target"]
        except KeyError as exc:
            raise ParseError(f"edge #{i} is missing field {exc}") from exc
        if not isinstance(source, str) or not isinstance(target, str):
            raise ParseError(f"edge #{i} endpoints must be node id strings")
        edges.append(EdgeSpec(source, target))

    layout = GraphLayout(tuple(nodes), tuple(edges))  # structural invariants
    _reject_collinear_overlaps(layout)
    return layout


def layout_to_dict(layout: GraphLayout) -> dict:
    """JSON-ready form in the interchange format, preserving order."""
    return {
        "nodes": [
            {"id": n.id, "x": n.x, "y": n.y, "color": n.color_role}
            for n in layout.nodes
        ],
        "edges": [{"source": e.source, "target": e.target} for e in layout.edges],
    }


def layout_to_json(layout: GraphLayout) -> str:
    return json.dumps(layout_to_dict(layout), indent=2)


def with_color_roles(
    layout: GraphLayout, blue: Iterable[str] = (), orange: Iterable[str] = ()
) -> GraphLayout:
    """Copy of the layout with highlight roles applied to the given nodes."""
    blue_set, orange_set = set(blue), set(orange)
    overlap = blue_set & orange_set
    if overlap:
        raise ValidationError(f"nodes {sorted(overlap)} cannot be blue and orange")
    for node_id in blue_set | orange_set:
        layout.node(node_id)  # raises LookupError for unknown ids
    nodes = tuple(
        NodeSpec(
            n.id,
            n.x,
            n.y,
            "blue" if n.id in blue_set else "orange" if n.id in orange_set else "plain",
        )
        for n in layout.nodes
    )
    return GraphLayout(nodes, layout.edges)
