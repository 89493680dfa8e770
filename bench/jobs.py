"""Workloads, the four timed jobs, and the output checks run after each job.

A job is one user command driven through the public API on bytes the
benchmark generated: ``schedule`` (what ``edgemorph schedule`` does),
``check`` (the independent validator), ``render_frames`` (``edgemorph render
--out``) and ``render_animated`` (``edgemorph render --animated``). Only the
program calls are timed; preparing inputs and checking outputs are not.
Jobs call the program through module attributes (``graph.parse_layout``,
not a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from edgemorph import crossings, graph, kinematics, render, scheduling
from edgemorph.errors import EdgemorphError

import layouts

#: Stub tips in written SVGs must match the vectorised path to this many px.
TIP_TOLERANCE_PX = 1e-3
#: Frames per render job compared against the vectorised path.
CHECKED_FRAMES = 16
#: Calibration time, in seconds, of the host that reported times refer to.
REFERENCE_CALIBRATION_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    nodes: int
    density: float
    fps: float
    horizon_ms: float | None = None

    def config(self) -> kinematics.AnimationConfig:
        return replace(
            kinematics.PRESETS[self.preset], fps=self.fps, horizon=self.horizon_ms
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "render_n40",
            "cubic easing at 10 fps: frame sampling and SVG export dominate, "
            "through the scalar stub-ratio kernel",
            preset="fasteas",
            nodes=40,
            density=5.35,
            fps=10.0,
        ),
        Workload(
            "repeat_n40_h60s",
            "linear easing with a 60 s horizon: repeat-pass placement dominates "
            "scheduling, the easing solver stays idle",
            preset="fastlin",
            nodes=40,
            density=5.35,
            fps=2.0,
            horizon_ms=60_000.0,
        ),
        Workload(
            "dense_n150",
            "600 edges: O(m^2) validation and crossing scan, and the validator's "
            "cubic solve over long sample series",
            preset="sloweas",
            nodes=150,
            density=4.0,
            fps=0.25,
        ),
    )
}

KINDS = ("schedule", "check", "render_frames", "render_animated")

#: (span name, module, attribute, record len(result)) for the traced run. Each
#: attribute is the one the caller looks up at call time.
TRACE_TARGETS = (
    ("graph.parse_layout", "edgemorph.graph", "parse_layout", False),
    ("graph.validate_layout", "edgemorph.graph", "validate_layout", False),
    ("graph.stub_pair", "edgemorph.render", "stub_pair", False),
    ("crossings.scan", "edgemorph.scheduling", "find_avoidable_crossings", True),
    ("easing.evaluate", "edgemorph.kinematics", "evaluate", False),
    ("easing.evaluate_many", "edgemorph.scheduling", "evaluate_many", True),
    ("easing.invert_many", "edgemorph.scheduling", "invert_many", True),
    ("easing.verify_monotone", "edgemorph.kinematics", "verify_monotone", False),
    ("kinematics.stub_ratio_at", "edgemorph.render", "stub_ratio_at", False),
    ("kinematics.edge_animation", "edgemorph.scheduling", "edge_animation", False),
    ("scheduling.conflict_constraints", "edgemorph.scheduling", "conflict_constraints", False),
    ("scheduling.compute_schedule", "edgemorph.scheduling", "compute_schedule", False),
    ("scheduling.validate_schedule", "edgemorph.scheduling", "validate_schedule", False),
    ("scheduling.sample_ratio_series", "edgemorph.scheduling", "sample_ratio_series", True),
    ("scheduling.schedule_to_json", "edgemorph.scheduling", "schedule_to_json", False),
    ("scheduling.parse_schedule", "edgemorph.scheduling", "parse_schedule", False),
    ("render.sample_frame", "edgemorph.render", "sample_frame", False),
    ("render.frame_to_svg", "edgemorph.render", "frame_to_svg", False),
    ("render.export", "edgemorph.render", "export_animation", False),
)

_LINE = re.compile(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"')
_ANIMATED_LINE = re.compile(
    r'<line x1="([^"]*)" y1="([^"]*)"[^>]*>'
    r'<animate attributeName="x2"[^>]*? values="([^"]*)"[^>]*/>'
    r'<animate attributeName="y2"[^>]*? values="([^"]*)"'
)


def layout_accepted(raw: bytes) -> bool:
    try:
        graph.parse_layout(raw)
    except EdgemorphError:
        return False
    return True


@dataclass
class Run:
    """State shared by the jobs of one benchmark run."""

    workload: Workload
    seed: int
    work_dir: Path
    cfg: kinematics.AnimationConfig = field(init=False)
    layout_raw: bytes = field(init=False)
    schedule_raw: bytes | None = None
    #: Deterministic outputs of the program, recorded for the run record.
    facts: dict = field(default_factory=dict)
    #: Distinct SHA-256 digests per output, in order of first appearance.
    digests: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cfg = self.workload.config()
        self.layout_raw = layouts.layout_bytes(self.workload, self.seed, layout_accepted)
        self.frame_rng = random.Random(self.seed)

    def record_digest(self, output: str, data_hash: str) -> None:
        seen = self.digests.setdefault(output, [])
        if data_hash not in seen:
            seen.append(data_hash)


def warm_up(workload: Workload, work_dir: Path) -> None:
    """Run every job once on a small layout so lazy imports and caches settle."""
    raw = layouts.layout_bytes(
        replace(workload, nodes=8, density=2.0), 0, layout_accepted
    )
    cfg = replace(workload.config(), horizon=None)
    layout = graph.parse_layout(raw)
    text = scheduling.schedule_to_json(scheduling.compute_schedule(layout, cfg))
    schedule = scheduling.parse_schedule(text)
    scheduling.validate_schedule(layout, schedule.config, schedule)
    out = Path(tempfile.mkdtemp(prefix="warm-", dir=work_dir))
    try:
        render.export_animation(layout, schedule.config, schedule, out, animated=True)
    finally:
        shutil.rmtree(out)


def clear_crossing_cache() -> None:
    """Drop the crossing scan's memo, if it still has one: each CLI run pays it."""
    cache_clear = getattr(crossings.find_avoidable_crossings, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


# --- timed parts -------------------------------------------------------------


def _schedule(run: Run, _inputs) -> str:
    layout = graph.parse_layout(run.layout_raw)
    schedule = scheduling.compute_schedule(layout, run.cfg)
    return scheduling.schedule_to_json(schedule)


def _check(run: Run, _inputs):
    layout = graph.parse_layout(run.layout_raw)
    schedule = scheduling.parse_schedule(run.schedule_raw)
    return scheduling.validate_schedule(layout, schedule.config, schedule)


def _render_frames(run: Run, inputs):
    layout, schedule, out = inputs
    return render.export_animation(layout, schedule.config, schedule, out, frames=True)


def _render_animated(run: Run, inputs):
    layout, schedule, out = inputs
    return render.export_animation(
        layout, schedule.config, schedule, out, frames=False, animated=True
    )


# --- untimed preparation and checks ------------------------------------------


def _render_inputs(run: Run):
    layout = graph.parse_layout(run.layout_raw)
    schedule = scheduling.parse_schedule(run.schedule_raw)
    out = Path(tempfile.mkdtemp(prefix="render-", dir=run.work_dir))
    return layout, schedule, out


def _check_schedule(run: Run, _inputs, text: str) -> list[str]:
    problems = []
    raw = text.encode("utf-8")
    if run.schedule_raw is None:
        run.schedule_raw = raw
        doc = json.loads(text)
        starts = [len(e["starts_ms"]) for e in doc["edges"]]
        run.facts.update(
            makespan_ms=doc["makespan_ms"],
            starts=sum(starts),
            passes=max(starts, default=0),
        )
    elif raw != run.schedule_raw:
        problems.append("schedule bytes differ from the first repetition")
    if scheduling.schedule_to_json(scheduling.parse_schedule(raw)) != text:
        problems.append("schedule does not survive parse_schedule/schedule_to_json")
    run.record_digest("schedule", hashlib.sha256(raw).hexdigest())
    return problems


def _check_verdict(run: Run, _inputs, report) -> list[str]:
    run.facts["violations"] = len(report.violations)
    if report.passed:
        return []
    kinds = sorted({v.kind for v in report.violations})
    return [f"validator rejects the schedule: {', '.join(kinds)}"]


def expected_frame_count(schedule_raw: bytes) -> int:
    """ceil(makespan * fps / 1000) + 1, with the makespan taken from the file."""
    doc = json.loads(schedule_raw)
    cfg = doc["config"]
    makespan = max(
        (
            ts + 2.0 * e["tau_ms"] + cfg["tau_half_ms"]
            for e in doc["edges"]
            for ts in e["starts_ms"]
        ),
        default=0.0,
    )
    return math.ceil(makespan * cfg["fps"] / 1000.0) + 1


def _sampled_frames(run: Run, count: int) -> list[int]:
    picks = {0, count - 1}
    picks.update(run.frame_rng.sample(range(count), min(CHECKED_FRAMES - 2, count)))
    return sorted(picks)


def expected_stubs(layout, schedule, frames: list[int]):
    """Stub pairs per sampled frame, from the validator's vectorised ratios."""
    cfg = schedule.config
    times = np.array([k * 1000.0 / cfg.fps for k in frames])
    by_key = schedule.starts_by_key()
    ratios = []
    for edge in layout.edges:
        scheduled = by_key.get(edge.key)
        if scheduled is None:
            ratios.append(np.full(len(frames), cfg.delta0))
        else:
            ratios.append(
                scheduling.sample_ratio_series(
                    scheduled.animation, scheduled.starts, cfg, times
                )
            )
    return [
        [graph.stub_pair(layout, edge, float(r[i])) for edge, r in zip(layout.edges, ratios)]
        for i in range(len(frames))
    ]


def _far(found, wanted) -> bool:
    return any(abs(float(a) - b) > TIP_TOLERANCE_PX for a, b in zip(found, wanted))


def _check_frames(run: Run, inputs, written) -> list[str]:
    layout, schedule, out = inputs
    count = expected_frame_count(run.schedule_raw)
    names = [p.name for p in written]
    if names != [f"frame_{k:06d}.svg" for k in range(count)]:
        return [f"wrote {len(names)} frame files, expected {count}"]
    problems = []
    frames = _sampled_frames(run, count)
    for k, stubs in zip(frames, expected_stubs(layout, schedule, frames)):
        wanted = []
        for stub in stubs:
            if stub.ratio >= 0.5 - 1e-12:
                wanted.append((*stub.segment_source[0], *stub.segment_target[0]))
            else:
                wanted.append((*stub.segment_source[0], *stub.segment_source[1]))
                wanted.append((*stub.segment_target[0], *stub.segment_target[1]))
        found = _LINE.findall(written[k].read_text(encoding="utf-8"))
        if len(found) != len(wanted) or any(_far(f, w) for f, w in zip(found, wanted)):
            problems.append(f"frame {k} stubs differ from the vectorised path")
    digest = hashlib.sha256()
    size = 0
    for path in written:
        data = path.read_bytes()
        digest.update(data)
        size += len(data)
    run.record_digest("frames", digest.hexdigest())
    run.facts.update(frames=count, frames_bytes=size)
    return problems


def _check_animated(run: Run, inputs, written) -> list[str]:
    layout, schedule, out = inputs
    if written != [out / "animation.svg"]:
        return [f"animated export wrote {[p.name for p in written]}"]
    data = written[0].read_bytes()
    lines = _ANIMATED_LINE.findall(data.decode("utf-8"))
    if len(lines) != 2 * len(layout.edges):
        return [f"animated export has {len(lines)} stubs, expected {2 * len(layout.edges)}"]
    count = expected_frame_count(run.schedule_raw)
    tips = [(x.split(";"), y.split(";")) for _, _, x, y in lines]
    if any(len(xs) != count or len(ys) != count for xs, ys in tips):
        return [f"animated export keyframe count differs from {count}"]
    problems = []
    frames = _sampled_frames(run, count)
    for k, stubs in zip(frames, expected_stubs(layout, schedule, frames)):
        segments = [s for stub in stubs for s in (stub.segment_source, stub.segment_target)]
        if any(
            _far((x1, y1, xs[k], ys[k]), (*anchor, *tip))
            for (x1, y1, _, _), (xs, ys), (anchor, tip) in zip(lines, tips, segments)
        ):
            problems.append(f"frame {k} animated stubs differ from the vectorised path")
    run.record_digest("animation", hashlib.sha256(data).hexdigest())
    run.facts["animation_bytes"] = len(data)
    return problems


JOBS = {
    "schedule": (None, _schedule, _check_schedule),
    "check": (None, _check, _check_verdict),
    "render_frames": (_render_inputs, _render_frames, _check_frames),
    "render_animated": (_render_inputs, _render_animated, _check_animated),
}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and formatting work.

    The median of three passes. The host's speed changes by up to a factor
    of two for minutes at a time, as other work shares its cores. A job's
    time divided by the calibration time taken around it stayed within a few
    per cent across those changes, while the raw time doubled.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        values = np.linspace(0.0, 1.0, 64)
        parts = []
        for i in range(400):
            x = (i % 97) / 97.0
            acc += math.hypot(x, 1.0 - x)
            acc += float(np.clip(values * x + 0.5, 0.0, 1.0)[i % 64])
            parts.append(f"{acc:.3f}")
        "".join(parts)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_job(run: Run, kind: str, tracer=None) -> tuple[float, float, list[str]]:
    """One job from a cold state.

    Returns the job's time scaled to the reference host, its raw time, both
    in seconds, and any problems its output checks found. The scale is
    REFERENCE_CALIBRATION_S over the mean of calibrations just before and
    just after the job.
    """
    prepare, timed, check = JOBS[kind]
    inputs = prepare(run) if prepare else None
    try:
        clear_crossing_cache()
        gc.collect()
        before = calibrate()
        if tracer is not None:
            tracer.begin_job(kind)
        start = time.perf_counter()
        try:
            output = timed(run, inputs)
        finally:
            elapsed = time.perf_counter() - start
            scale = 2.0 * REFERENCE_CALIBRATION_S / (before + calibrate())
            if tracer is not None:
                tracer.end_job(scale)
        return elapsed * scale, elapsed, check(run, inputs, output)
    finally:
        if inputs is not None:
            shutil.rmtree(inputs[2], ignore_errors=True)
