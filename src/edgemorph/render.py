"""Frame sampling and SVG output for scheduled drawings.

Rendering is a pure function of layout, configuration, schedule, timestamp,
and style: identical inputs give byte-identical documents. Nodes are drawn as
filled disks over the edge stubs on a white background; the drawing area is
the node bounding box plus a 10 px margin. Coordinates are written with three
decimal places.

Every path samples stub ratios through
:func:`~edgemorph.kinematics.stub_ratio_matrix`, on the one stub-ratio kernel
that the validator samples too, so ``check`` verifies exactly the ratios drawn.
An export builds the edges x frames ratio matrix and derives all stub tips
from it with array arithmetic, as :func:`~edgemorph.graph.stub_pair` does:
frame files in blocks of frames, the animated document in one piece, and
:func:`sample_frame` as the one-column case. The animated export embeds
per-stub tip keyframes, sampled at the configured frame rate, as declarative
animation elements in one self-contained SVG, so linear and cubic easing share
a single export path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class _StubTips:
    """Stub ratios and both stub tips of every edge at every sampled time.

    Each array is edges x times. Tips use the affine form (1 - r) a + r b, so
    ratio 1/2 puts both tips on the identical midpoint expression.
    """

    ratios: np.ndarray
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray


def _stub_tips(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule, times: Sequence[float]
) -> _StubTips:
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
    return _StubTips(
        ratios=ratios,
        source_x=rest * sx + ratios * tx,
        source_y=rest * sy + ratios * ty,
        target_x=rest * tx + ratios * sx,
        target_y=rest * ty + ratios * sy,
    )


def _frames(
    layout: GraphLayout, times: Sequence[float], tips: _StubTips
) -> Iterator[FrameGeometry]:
    """One frame per sampled time, read from the tip arrays column by column."""
    anchors = [layout.endpoints(edge) for edge in layout.edges]
    arrays = (tips.ratios, tips.source_x, tips.source_y, tips.target_x, tips.target_y)
    for t, ratios, sx, sy, tx, ty in zip(times, *(a.T.tolist() for a in arrays)):
        stubs = tuple(
            StubPair(edge, r, (source, (x1, y1)), (target, (x2, y2)))
            for edge, (source, target), r, x1, y1, x2, y2 in zip(
                layout.edges, anchors, ratios, sx, sy, tx, ty
            )
        )
        yield FrameGeometry(timestamp=t, stubs=stubs, nodes=layout.nodes)


def sample_frame(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule, t: float
) -> FrameGeometry:
    """Geometry at an absolute time; edges without a live animation rest."""
    return next(_frames(layout, [t], _stub_tips(layout, cfg, schedule, [t])))


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


def _svg_open(nodes: tuple[NodeSpec, ...], background: str) -> list[str]:
    x, y, w, h = _view_box(nodes)
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}">',
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{background}"/>',
    ]


def _line(p1: Point, p2: Point, style: RenderStyle) -> str:
    return (
        f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" '
        f'x2="{_fmt(p2[0])}" y2="{_fmt(p2[1])}" '
        f'stroke="{style.stroke}" stroke-width="{_fmt(style.stroke_width)}"/>'
    )


def _node_circles(nodes: tuple[NodeSpec, ...], style: RenderStyle) -> list[str]:
    return [
        f'<circle cx="{_fmt(n.x)}" cy="{_fmt(n.y)}" r="{_fmt(style.node_radius)}" '
        f'fill="{style.node_fill(n)}" stroke="{style.stroke}" '
        f'stroke-width="{_fmt(style.stroke_width)}"/>'
        for n in nodes
    ]


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
    parts = _svg_open(frame.nodes, style.background)
    if regions:
        by_id = {n.id: n for n in frame.nodes}
        for region in regions:
            for node_id in region:
                node = by_id[node_id]
                parts.append(
                    f'<circle cx="{_fmt(node.x)}" cy="{_fmt(node.y)}" '
                    f'r="{_fmt(style.region_halo_radius)}" fill="{style.region_tint}" '
                    f'fill-opacity="{_fmt(style.region_tint_opacity)}"/>'
                )
    for stub in frame.stubs:
        if stub.ratio >= 0.5 - 1e-12:
            parts.append(_line(stub.segment_source[0], stub.segment_target[0], style))
        else:
            parts.append(_line(*stub.segment_source, style))
            parts.append(_line(*stub.segment_target, style))
    parts.extend(_node_circles(frame.nodes, style))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    tips: _StubTips,
    style: RenderStyle,
) -> str:
    duration = times[-1] if times[-1] > 0 else 1000.0 / cfg.fps
    key_times = ";".join(f"{t / duration:.6f}" for t in times)

    def animated_line(anchor: Point, xs: list[float], ys: list[float]) -> str:
        x_values = ";".join(_fmt(x) for x in xs)
        y_values = ";".join(_fmt(y) for y in ys)
        return (
            f'<line x1="{_fmt(anchor[0])}" y1="{_fmt(anchor[1])}" '
            f'x2="{_fmt(xs[0])}" y2="{_fmt(ys[0])}" '
            f'stroke="{style.stroke}" stroke-width="{_fmt(style.stroke_width)}">'
            f'<animate attributeName="x2" dur="{_fmt(duration)}ms" '
            f'values="{x_values}" keyTimes="{key_times}" calcMode="linear" '
            'repeatCount="indefinite"/>'
            f'<animate attributeName="y2" dur="{_fmt(duration)}ms" '
            f'values="{y_values}" keyTimes="{key_times}" calcMode="linear" '
            'repeatCount="indefinite"/>'
            "</line>"
        )

    parts = _svg_open(layout.nodes, style.background)
    rows = zip(
        layout.edges,
        tips.source_x.tolist(),
        tips.source_y.tolist(),
        tips.target_x.tolist(),
        tips.target_y.tolist(),
    )
    for edge, sx, sy, tx, ty in rows:
        source_anchor, target_anchor = layout.endpoints(edge)
        parts.append(animated_line(source_anchor, sx, sy))
        parts.append(animated_line(target_anchor, tx, ty))
    parts.extend(_node_circles(layout.nodes, style))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
        for first in range(0, len(times), FRAME_BLOCK):
            block = times[first : first + FRAME_BLOCK]
            tips = _stub_tips(layout, cfg, schedule, block)
            for k, frame in enumerate(_frames(layout, block, tips), start=first):
                path = out_dir / f"frame_{k:06d}.svg"
                path.write_text(frame_to_svg(frame, style), encoding="utf-8")
                written.append(path)
    if animated:
        tips = _stub_tips(layout, cfg, schedule, times)
        path = out_dir / "animation.svg"
        path.write_text(_animated_svg(layout, cfg, times, tips, style), encoding="utf-8")
        written.append(path)
    return written
