"""Frame sampling and SVG output for scheduled drawings.

Rendering is a pure function of layout, schedule (with its own config),
timestamp and region groups: identical inputs give byte-identical documents.
There is one drawing style: nodes are drawn as filled disks, coloured by role, over
black edge stubs on a white background; the drawing area is the node bounding
box plus a 10 px margin. Coordinates are written with three decimal places.

Every path samples stub ratios through
:func:`~edgemorph.kinematics.stub_ratio_matrix`, on the one stub-ratio kernel
that the validator samples too, so ``check`` verifies exactly the ratios drawn.
:func:`_tips` turns the edges x times ratio matrix into tip coordinate
arrays with the affine form that :func:`~edgemorph.graph.stub_pair` uses.

Each piece of text has one writer, and every number one format,
:data:`_NUMBER`. :func:`_anchored` opens every edge line with its end left as
``%`` slots; :func:`_edge_templates` makes each edge's full line and two-stub
template from it, and :func:`_edge_texts` picks between them.
:func:`_document_ends` writes the root element, background, region halos and
node disks. :func:`frame_texts`, the one frame writer, writes frames in blocks
straight from the tip arrays, with no per-frame objects, for the frames export,
``render --frame-at`` and region-tinted trial frames alike. The animated export
embeds per-stub tip keyframes, sampled at the configured frame rate, as
declarative animation elements in one self-contained SVG, so linear and cubic
easing share a single export path.

Most edge-frames rest at exactly ``delta0``, and a line's text depends
only on its edge and ratio. Each export therefore formats every edge's resting
text once, from :func:`_tips` at ``delta0``, and formats only the edge-frames
whose ratio differs, each with one ``%`` on its edge's template (none at
1/2); :func:`_over_resting` lays those over the resting text, so frame bodies
start as the resting lines and keyframe lists as the resting tips.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, UsageError
from .graph import GraphLayout, NodeSpec, Point
from .kinematics import AnimationConfig, sample_times, stub_ratio_matrix
from .scheduling import Schedule, own_config

MARGIN_PX = 10.0
#: Most frames one export may sample: about 55 minutes at 30 fps.
MAX_FRAMES = 100_000
#: Frames whose stub tips a frames export holds at once.
FRAME_BLOCK = 256


def _aligned(layout: GraphLayout, schedule: Schedule) -> list:
    """Each layout edge's (animation, starts), or None where the schedule has
    no entry: the rows of :func:`~edgemorph.kinematics.stub_ratio_matrix`."""
    by_key = {se.animation.edge.key: (se.animation, se.starts) for se in schedule.edges}
    return [by_key.get(edge.key) for edge in layout.edges]


def _tips(
    layout: GraphLayout, ratios: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Source tip x and y, target tip x and y, each shaped like ``ratios``.

    Tips use the affine form (1 - r) a + r b, so ratio 1/2 puts both tips on
    the identical midpoint expression.
    """
    anchors = np.array([layout.endpoints(edge) for edge in layout.edges]).reshape(-1, 2, 2)
    sx, sy = anchors[:, 0, 0:1], anchors[:, 0, 1:2]
    tx, ty = anchors[:, 1, 0:1], anchors[:, 1, 1:2]
    rest = 1.0 - ratios
    return (
        rest * sx + ratios * tx,
        rest * sy + ratios * ty,
        rest * tx + ratios * sx,
        rest * ty + ratios * sy,
    )


def _resting_tips(layout: GraphLayout, delta0: float) -> list[list[float]]:
    """Each edge's source and target tips at ``delta0``: rows of (x1, y1, x2, y2)."""
    resting = np.full((len(layout.edges), 1), delta0)
    return np.hstack(_tips(layout, resting)).tolist()


def _over_resting(resting: list[str], moving: np.ndarray, texts: list[str]) -> np.ndarray:
    """Edges x times text: each row its edge's resting text, with ``texts``
    in the ``moving`` cells (in row-major order)."""
    grid = np.empty(moving.shape, dtype=object)
    grid[:] = np.array(resting, dtype=object)[:, None]
    grid[moving] = texts
    return grid


#: The format of every number in a document: three decimal places.
_NUMBER = "%.3f"
_fmt = _NUMBER.__mod__

# The one drawing style, each size formatted once: black strokes on white,
# node disks filled by colour role, and translucent yellow region halos.
_STROKE = f'stroke="#000000" stroke-width="{_fmt(2.0)}"'
_NODE = {
    role: f'r="{_fmt(7.0)}" fill="{fill}" {_STROKE}/>'
    for role, fill in (("plain", "#808080"), ("blue", "#1f77b4"), ("orange", "#ff7f0e"))
}
_HALO = f'r="{_fmt(14.0)}" fill="#ffd54d" fill-opacity="{_fmt(0.35)}"/>'


def _view_box(nodes: tuple[NodeSpec, ...]) -> tuple[float, float, float, float]:
    if not nodes:
        return (0.0, 0.0, 2.0 * MARGIN_PX, 2.0 * MARGIN_PX)
    xs = [n.x for n in nodes]
    ys = [n.y for n in nodes]
    min_x, max_x = min(xs) - MARGIN_PX, max(xs) + MARGIN_PX
    min_y, max_y = min(ys) - MARGIN_PX, max(ys) + MARGIN_PX
    return (min_x, min_y, max_x - min_x, max_y - min_y)


def _document_ends(
    nodes: tuple[NodeSpec, ...], regions: tuple[tuple[str, ...], ...] = ()
) -> tuple[str, str]:
    """The text before the body (root element, background, region halos) and after
    it (node disks). A region id that names no node raises UsageError."""
    by_id = {n.id: n for n in nodes}
    unknown = sorted({i for region in regions for i in region} - by_id.keys())
    if unknown:
        raise UsageError(f"regions name nodes not in the frame: {unknown}")
    x, y, w, h = _view_box(nodes)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}">\n'
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        'fill="#ffffff"/>'
    )
    halos = [
        f'<circle cx="{_fmt(n.x)}" cy="{_fmt(n.y)}" {_HALO}'
        for region in regions
        for n in map(by_id.__getitem__, region)
    ]
    circles = [
        f'<circle cx="{_fmt(n.x)}" cy="{_fmt(n.y)}" {_NODE[n.color_role]}'
        for n in nodes
    ]
    return "\n".join([head, *halos]), "\n".join([*circles, "</svg>"]) + "\n"


def _document(ends: tuple[str, str], body: list[str]) -> str:
    head, tail = ends
    return "\n".join([head, *body, tail])


def _anchored(p1: Point) -> str:
    """The open ``<line`` element of a stroked segment from p1, with its end
    x2, y2 left as ``%`` slots."""
    return f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" x2="{_NUMBER}" y2="{_NUMBER}" {_STROKE}'


def _line(p1: Point, p2: Point, children: str = "") -> str:
    """One stroked segment; ``children`` (animation elements) go inside it."""
    line = _anchored(p1) % (p2[0], p2[1])
    return f"{line}>{children}</line>" if children else f"{line}/>"


def _edge_templates(anchors: list) -> tuple[list[str], list[str]]:
    """Per (source, target) anchor pair: the edge's full line, and its two stubs
    with the tips x1, y1 (source) and x2, y2 (target) as ``%`` slots."""
    full = [_line(source, target) for source, target in anchors]
    stubs = [f"{_anchored(s)}/>\n{_anchored(t)}/>" for s, t in anchors]
    return full, stubs


def _edge_texts(templates: tuple[list[str], list[str]], cells: Iterable) -> list[str]:
    """Text of each (edge index, ratio, x1, y1, x2, y2) cell: a fully drawn edge
    is one line between its endpoints, a partial one two stubs."""
    full, stubs = templates
    return [
        full[i] if r >= 0.5 - 1e-12 else stubs[i] % (x1, y1, x2, y2)
        for i, r, x1, y1, x2, y2 in cells
    ]


def frame_timestamps(makespan: float, fps: float) -> list[float]:
    """Sampling times k * 1000 / fps ms for k = 0 .. ceil(makespan * fps / 1000).

    The last frame lands at or just past the makespan, capturing the final
    resting state; frame 0 is always there, even when every animation ends
    before time 0. More than :data:`MAX_FRAMES` frames raise ConfigError.
    """
    span = makespan * fps / 1000.0
    if not span <= MAX_FRAMES - 1:
        raise ConfigError(
            f"{makespan:.3f} ms at {fps} fps needs more than {MAX_FRAMES} frames"
        )
    return [k * 1000.0 / fps for k in range(max(math.ceil(span), 0) + 1)]


def frame_texts(
    layout: GraphLayout,
    schedule: Schedule,
    times: Sequence[float],
    regions: tuple[tuple[str, ...], ...] = (),
) -> Iterator[str]:
    """SVG text of the frame at each time, under the schedule's own config,
    sampled :data:`FRAME_BLOCK` frames at a time; each block formats only its
    moving edge-frames. Times must be finite and ascending, or RangeError is
    raised. Each node of the ``regions`` id groups gets a translucent halo
    under every edge, written once into the document head; an id that names
    no node raises UsageError. Every frame is drawn in the module's one style."""
    cfg, times = schedule.config, sample_times(times)
    ends = _document_ends(layout.nodes, regions)
    templates = _edge_templates([layout.endpoints(edge) for edge in layout.edges])
    rest = enumerate(_resting_tips(layout, cfg.delta0))
    resting = _edge_texts(templates, ((i, cfg.delta0, *tips) for i, tips in rest))
    entries = _aligned(layout, schedule)
    for first in range(0, len(times), FRAME_BLOCK):
        ratios = stub_ratio_matrix(cfg, entries, times[first : first + FRAME_BLOCK])
        moving = ratios != cfg.delta0
        arrays = (ratios, *_tips(layout, ratios))
        cells = zip(np.nonzero(moving)[0].tolist(), *(a[moving].tolist() for a in arrays))
        texts = _edge_texts(templates, cells)
        for body in _over_resting(resting, moving, texts).T.tolist():
            yield _document(ends, body)


def _animated_svg(layout: GraphLayout, schedule: Schedule, times: list[float]) -> str:
    cfg = schedule.config
    duration = times[-1] if times[-1] > 0 else 1000.0 / cfg.fps
    dur = _fmt(duration)
    key_times = ";".join(f"{t / duration:.6f}" for t in times)
    ratios = stub_ratio_matrix(cfg, _aligned(layout, schedule), times)
    tips = _tips(layout, ratios)
    firsts = np.hstack([a[:, :1] for a in tips]).tolist()
    moving = ratios != cfg.delta0
    keyframes = []
    for a, rest in zip(tips, zip(*_resting_tips(layout, cfg.delta0))):
        text = _over_resting(list(map(_fmt, rest)), moving, list(map(_fmt, a[moving].tolist())))
        keyframes.append(map(";".join, text.tolist()))
    body = []
    for edge, first, *values in zip(layout.edges, firsts, *keyframes):
        for anchor, x2, y2, xs, ys in zip(
            layout.endpoints(edge), first[0::2], first[1::2], values[0::2], values[1::2]
        ):
            children = "".join(
                f'<animate attributeName="{name}" dur="{dur}ms" '
                f'values="{column}" keyTimes="{key_times}" '
                'calcMode="linear" repeatCount="indefinite"/>'
                for name, column in (("x2", xs), ("y2", ys))
            )
            body.append(_line(anchor, (x2, y2), children))
    return _document(_document_ends(layout.nodes), body)


def export_animation(
    layout: GraphLayout,
    cfg: AnimationConfig,
    schedule: Schedule,
    out_dir: str | Path,
    frames: bool = True,
    animated: bool = False,
) -> list[Path]:
    """Write frame files and/or the animated document into a directory.

    The schedule is drawn under its own config, ``schedule.config``: the
    positional ``cfg`` must equal it, and any other raises UsageError. Frames
    are named frame_%06d.svg and sampled at the config's frame rate from time
    zero through the first frame at or past the makespan, in blocks of
    :data:`FRAME_BLOCK`; the animated document, animation.svg, whose text
    holds every value anyway, in one. Both use the module's one style. More
    than :data:`MAX_FRAMES` frames raise ConfigError before the directory is
    created. Returns the written paths in order.
    """
    cfg = own_config(cfg, schedule)
    times = frame_timestamps(schedule.makespan, cfg.fps)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if frames:
        for k, text in enumerate(frame_texts(layout, schedule, times)):
            path = out_dir / f"frame_{k:06d}.svg"
            path.write_text(text, encoding="utf-8")
            written.append(path)
    if animated:
        path = out_dir / "animation.svg"
        path.write_text(_animated_svg(layout, schedule, times), encoding="utf-8")
        written.append(path)
    return written
