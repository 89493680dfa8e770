"""Frame sampling and SVG output for scheduled drawings.

Rendering is a pure function of layout, configuration, schedule, timestamp,
and style: identical inputs give byte-identical documents. Nodes are drawn as
filled disks over the edge stubs on a white background; the drawing area is
the node bounding box plus a 10 px margin. Coordinates are written with three
decimal places.

Every path samples stub ratios through
:func:`~edgemorph.kinematics.stub_ratio_matrix`, on the one stub-ratio kernel
that the validator samples too, so ``check`` verifies exactly the ratios drawn.
:func:`_stub_tips` turns the edges x times ratio matrix into tip coordinate
arrays with the affine form that :func:`~edgemorph.graph.stub_pair` uses.

Each piece of text has one writer: :func:`_line` writes every edge line,
:func:`_edge_lines` decides between one full line and two stubs, and
:func:`_document_ends` writes the root element, background and node disks
around every document. Frame files are written in blocks of frames straight
from the tip arrays, with no per-frame objects; :func:`sample_frame` is the
one-column case and :func:`frame_to_svg` writes its frame through the same
writers, so both give the same bytes. The animated export embeds per-stub tip
keyframes, sampled at the configured frame rate, as declarative animation
elements in one self-contained SVG, so linear and cubic easing share a single
export path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .graph import GraphLayout, NodeSpec, Point, StubPair
from .kinematics import AnimationConfig, stub_ratio_matrix
from .scheduling import Schedule

MARGIN_PX = 10.0
#: Most frames one export may sample: about 55 minutes at 30 fps.
MAX_FRAMES = 100_000
#: Frames whose stub tips a frames export holds at once.
FRAME_BLOCK = 256


@dataclass(frozen=True)
class RenderStyle:
    node_radius: float = 7.0
    stroke_width: float = 2.0
    fill_plain: str = "#808080"
    fill_blue: str = "#1f77b4"
    fill_orange: str = "#ff7f0e"
    stroke: str = "#000000"
    background: str = "#ffffff"
    region_tint: str = "#ffd54d"
    region_tint_opacity: float = 0.35
    region_halo_radius: float = 14.0

    def __post_init__(self) -> None:
        if self.node_radius <= 0 or self.stroke_width <= 0:
            raise ValueError("style dimensions must be positive")

    def node_fill(self, node: NodeSpec) -> str:
        if node.color_role == "blue":
            return self.fill_blue
        if node.color_role == "orange":
            return self.fill_orange
        return self.fill_plain


DEFAULT_STYLE = RenderStyle()


@dataclass(frozen=True)
class FrameGeometry:
    """Resolved geometry of one frame: stub pairs per edge, disks per node."""

    timestamp: float
    stubs: tuple[StubPair, ...]
    nodes: tuple[NodeSpec, ...]


def _stub_tips(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stub ratios, source tip x and y, target tip x and y: each edges x times.

    Tips use the affine form (1 - r) a + r b, so ratio 1/2 puts both tips on
    the identical midpoint expression.
    """
    by_key = schedule.starts_by_key()
    entries = []
    for edge in layout.edges:
        scheduled = by_key.get(edge.key)
        entries.append(None if scheduled is None else (scheduled.animation, scheduled.starts))
    ratios = stub_ratio_matrix(cfg, entries, times)
    anchors = np.array([layout.endpoints(edge) for edge in layout.edges]).reshape(-1, 2, 2)
    sx, sy = anchors[:, 0, 0:1], anchors[:, 0, 1:2]
    tx, ty = anchors[:, 1, 0:1], anchors[:, 1, 1:2]
    rest = 1.0 - ratios
    return (
        ratios,
        rest * sx + ratios * tx,
        rest * sy + ratios * ty,
        rest * tx + ratios * sx,
        rest * ty + ratios * sy,
    )


def sample_frame(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule, t: float
) -> FrameGeometry:
    """Geometry at an absolute time; edges without a live animation rest."""
    columns = (a[:, 0].tolist() for a in _stub_tips(layout, cfg, schedule, [t]))
    stubs = tuple(
        StubPair(edge, r, (source, (x1, y1)), (target, (x2, y2)))
        for edge, (source, target), r, x1, y1, x2, y2 in zip(
            layout.edges, map(layout.endpoints, layout.edges), *columns
        )
    )
    return FrameGeometry(timestamp=t, stubs=stubs, nodes=layout.nodes)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _view_box(nodes: tuple[NodeSpec, ...]) -> tuple[float, float, float, float]:
    if not nodes:
        return (0.0, 0.0, 2.0 * MARGIN_PX, 2.0 * MARGIN_PX)
    xs = [n.x for n in nodes]
    ys = [n.y for n in nodes]
    min_x, max_x = min(xs) - MARGIN_PX, max(xs) + MARGIN_PX
    min_y, max_y = min(ys) - MARGIN_PX, max(ys) + MARGIN_PX
    return (min_x, min_y, max_x - min_x, max_y - min_y)


def _document_ends(nodes: tuple[NodeSpec, ...], style: RenderStyle) -> tuple[str, str]:
    """The text before the body (root element, background) and after it (nodes)."""
    x, y, w, h = _view_box(nodes)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}">\n'
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{style.background}"/>'
    )
    circles = [
        f'<circle cx="{_fmt(n.x)}" cy="{_fmt(n.y)}" r="{_fmt(style.node_radius)}" '
        f'fill="{style.node_fill(n)}" stroke="{style.stroke}" '
        f'stroke-width="{_fmt(style.stroke_width)}"/>'
        for n in nodes
    ]
    return head, "\n".join([*circles, "</svg>"]) + "\n"


def _document(ends: tuple[str, str], body: list[str]) -> str:
    head, tail = ends
    return "\n".join([head, *body, tail])


def _line(p1: Point, p2: Point, style: RenderStyle, children: str = "") -> str:
    """One stroked segment; ``children`` (animation elements) go inside it."""
    line = (
        f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" '
        f'x2="{_fmt(p2[0])}" y2="{_fmt(p2[1])}" '
        f'stroke="{style.stroke}" stroke-width="{_fmt(style.stroke_width)}"'
    )
    return f"{line}>{children}</line>" if children else f"{line}/>"


def _edge_lines(
    ratio: float,
    source: Point,
    source_tip: Point,
    target: Point,
    target_tip: Point,
    style: RenderStyle,
) -> str:
    """A fully drawn edge is one line between its endpoints, a partial one two stubs."""
    if ratio >= 0.5 - 1e-12:
        return _line(source, target, style)
    return f"{_line(source, source_tip, style)}\n{_line(target, target_tip, style)}"


def frame_to_svg(
    frame: FrameGeometry,
    style: RenderStyle = DEFAULT_STYLE,
    regions: tuple[tuple[str, ...], ...] = (),
) -> str:
    """Deterministic SVG text for one frame.

    A fully drawn edge collapses to a single line spanning its endpoints; any
    partial ratio draws the two stubs separately. Optional region node-id
    groups get a translucent halo behind their nodes, drawn below everything
    else but the background.
    """
    by_id = {n.id: n for n in frame.nodes}
    body = [
        f'<circle cx="{_fmt(node.x)}" cy="{_fmt(node.y)}" '
        f'r="{_fmt(style.region_halo_radius)}" fill="{style.region_tint}" '
        f'fill-opacity="{_fmt(style.region_tint_opacity)}"/>'
        for region in regions
        for node in map(by_id.__getitem__, region)
    ]
    body += [
        _edge_lines(s.ratio, *s.segment_source, *s.segment_target, style)
        for s in frame.stubs
    ]
    return _document(_document_ends(frame.nodes, style), body)


def frame_timestamps(makespan: float, fps: float) -> list[float]:
    """Sampling times k * 1000 / fps ms for k = 0 .. ceil(makespan * fps / 1000).

    The last frame lands at or just past the makespan, capturing the final
    resting state. More than :data:`MAX_FRAMES` frames raise ConfigError.
    """
    span = makespan * fps / 1000.0
    if not span <= MAX_FRAMES - 1:
        raise ConfigError(
            f"{makespan:.3f} ms at {fps} fps needs more than {MAX_FRAMES} frames"
        )
    return [k * 1000.0 / fps for k in range(math.ceil(span) + 1)]


def _animated_svg(
    layout: GraphLayout,
    cfg: AnimationConfig,
    times: list[float],
    tips: tuple[np.ndarray, ...],
    style: RenderStyle,
) -> str:
    duration = times[-1] if times[-1] > 0 else 1000.0 / cfg.fps
    dur = _fmt(duration)
    key_times = ";".join(f"{t / duration:.6f}" for t in times)
    body = []
    _, *tip_arrays = tips
    for edge, sx, sy, tx, ty in zip(layout.edges, *(a.tolist() for a in tip_arrays)):
        for anchor, xs, ys in zip(layout.endpoints(edge), (sx, tx), (sy, ty)):
            children = "".join(
                f'<animate attributeName="{name}" dur="{dur}ms" '
                f'values="{";".join(map(_fmt, values))}" keyTimes="{key_times}" '
                'calcMode="linear" repeatCount="indefinite"/>'
                for name, values in (("x2", xs), ("y2", ys))
            )
            body.append(_line(anchor, (xs[0], ys[0]), style, children))
    return _document(_document_ends(layout.nodes, style), body)


def export_animation(
    layout: GraphLayout,
    cfg: AnimationConfig,
    schedule: Schedule,
    out_dir: str | Path,
    frames: bool = True,
    animated: bool = False,
    style: RenderStyle = DEFAULT_STYLE,
) -> list[Path]:
    """Write frame files and/or the animated document into a directory.

    Frames are named frame_%06d.svg and sampled at the configured frame rate
    from time zero through the first frame at or past the makespan; the
    animated document is animation.svg. Returns the written paths in order.
    Frame files are sampled in blocks of :data:`FRAME_BLOCK` frames, the
    animated document, whose text holds every value anyway, in one. An export of
    more than :data:`MAX_FRAMES` frames raises ConfigError before the
    directory is created.
    """
    times = frame_timestamps(schedule.makespan, cfg.fps)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if frames:
        ends = _document_ends(layout.nodes, style)
        anchors = [layout.endpoints(edge) for edge in layout.edges]
        for first in range(0, len(times), FRAME_BLOCK):
            tips = _stub_tips(layout, cfg, schedule, times[first : first + FRAME_BLOCK])
            for k, columns in enumerate(zip(*(a.T.tolist() for a in tips)), start=first):
                body = [
                    _edge_lines(r, source, (x1, y1), target, (x2, y2), style)
                    for (source, target), r, x1, y1, x2, y2 in zip(anchors, *columns)
                ]
                path = out_dir / f"frame_{k:06d}.svg"
                path.write_text(_document(ends, body), encoding="utf-8")
                written.append(path)
    if animated:
        tips = _stub_tips(layout, cfg, schedule, times)
        path = out_dir / "animation.svg"
        path.write_text(_animated_svg(layout, cfg, times, tips, style), encoding="utf-8")
        written.append(path)
    return written
