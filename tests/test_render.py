import math
import re
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import numpy as np

from edgemorph import (
    ConfigError,
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    PRESETS,
    RangeError,
    Schedule,
    UsageError,
    compute_schedule,
    export_animation,
    frame_timestamps,
    parse_layout,
    stub_pair,
)
from edgemorph.easing import evaluate
from edgemorph.kinematics import EdgeAnimation, stub_ratio_matrix
import edgemorph.render as render
from edgemorph.render import MAX_FRAMES, frame_texts
from edgemorph.scheduling import sample_ratio_series
from conftest import DATA_DIR
from test_scheduling import loop_ratio_series
from gen_layouts import k4_square

SLOWLIN = PRESETS["slowlin"]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_frame.svg"


def five_node_layout():
    """K4 on a square plus a tail."""
    base = k4_square()
    return GraphLayout(
        base.nodes + (NodeSpec("t", 50.0, -80.0),),
        base.edges + (EdgeSpec("p", "t"),),
    )


def golden_fixture_svg():
    """Mid-animation frame of the five-node layout."""
    layout = five_node_layout()
    schedule = compute_schedule(layout, SLOWLIN)
    (svg,) = frame_texts(layout, schedule, [400.0])
    return svg


def kernel_entries(layout, schedule):
    """Per layout edge, its animation and starts, or None when unscheduled."""
    by_key = schedule.starts_by_key()
    return [
        (by_key[e.key].animation, by_key[e.key].starts) if e.key in by_key else None
        for e in layout.edges
    ]


def ratios_at(layout, cfg, schedule, t):
    """Each edge's stub ratio at one time, by key, from the kernel render draws from."""
    column = stub_ratio_matrix(cfg, kernel_entries(layout, schedule), [t])[:, 0]
    return {edge.key: r for edge, r in zip(layout.edges, column.tolist())}


def frame_at(layout, schedule, t, **kwargs):
    (svg,) = frame_texts(layout, schedule, [t], **kwargs)
    return svg


HALO = 'fill="#ffd54d"'


def halo_lines(svg):
    return [line for line in svg.split("\n") if HALO in line]


@pytest.fixture
def cross_schedule(cross_layout):
    return compute_schedule(cross_layout, SLOWLIN)


class TestSampleFrame:
    """Ratios at single times, as render samples them for one frame."""

    def test_before_any_start_everything_rests(self, cross_layout, cross_schedule):
        ratios = ratios_at(cross_layout, SLOWLIN, cross_schedule, 0.0)
        assert all(r == 0.25 for r in ratios.values())

    def test_hold_phase_is_fully_drawn(self, cross_layout, cross_schedule):
        ratios = ratios_at(cross_layout, SLOWLIN, cross_schedule, 1050.0)
        assert ratios[("a", "b")] == 0.5

    def test_after_makespan_everything_rests(self, cross_layout, cross_schedule):
        ratios = ratios_at(cross_layout, SLOWLIN, cross_schedule, cross_schedule.makespan + 1.0)
        assert all(r == 0.25 for r in ratios.values())

    def test_ratios_always_in_bounds(self, cross_layout, cross_schedule):
        for t in range(0, int(cross_schedule.makespan) + 2, 7):
            ratios = ratios_at(cross_layout, SLOWLIN, cross_schedule, float(t))
            assert all(0.25 <= r <= 0.5 for r in ratios.values())

    def test_millisecond_sweep_matches_the_start_loop(self, cross_layout, cross_schedule):
        times = np.arange(0.0, cross_schedule.makespan + 1.0, 1.0)
        for se in cross_schedule.edges:
            expected = loop_ratio_series(se.animation, se.starts, SLOWLIN, times)
            series = sample_ratio_series(se.animation, se.starts, SLOWLIN, times)
            assert np.array_equal(series, expected)
            for i in (0, 150, 999, 1000, 1500, 2000, len(times) - 1):
                ratios = ratios_at(cross_layout, SLOWLIN, cross_schedule, float(times[i]))
                assert ratios[se.animation.edge.key] == float(expected[i])

    def test_repeated_animation_uses_latest_start(self, cross_layout):
        cfg = replace(SLOWLIN, horizon=7000.0)
        schedule = compute_schedule(cross_layout, cfg)
        se = schedule.starts_by_key()[("a", "b")]
        assert len(se.starts) >= 2
        second_start = se.starts[1]
        ratios = ratios_at(cross_layout, cfg, schedule, second_start + se.animation.tau)
        assert ratios[("a", "b")] == 0.5


class TestFrameToSvg:
    """One frame's text, through the frame writer ``frame_texts``."""

    def test_byte_identical(self, cross_layout, cross_schedule):
        first = frame_at(cross_layout, cross_schedule, 321.0)
        second = frame_at(cross_layout, cross_schedule, 321.0)
        assert first == second

    def test_empty_graph_document(self):
        layout = GraphLayout((), ())
        schedule = Schedule(config=SLOWLIN, edges=(), makespan=0.0)
        svg = frame_at(layout, schedule, 0.0)
        assert svg.count("<line") == 0
        assert svg.count("<circle") == 0
        assert '<rect' in svg and 'fill="#ffffff"' in svg

    def test_fully_drawn_edge_is_one_line(self, cross_layout, cross_schedule):
        svg = frame_at(cross_layout, cross_schedule, 1050.0)
        # edge a-b is at full extension, edge c-d still partial: 1 + 2 lines
        assert svg.count("<line") == 3
        assert '<line x1="0.000" y1="0.000" x2="400.000" y2="0.000"' in svg

    def test_partial_edges_are_two_lines_each(self, cross_layout, cross_schedule):
        svg = frame_at(cross_layout, cross_schedule, 0.0)
        assert svg.count("<line") == 4

    def test_nodes_drawn_after_edges(self, cross_layout, cross_schedule):
        svg = frame_at(cross_layout, cross_schedule, 0.0)
        assert svg.rindex("<line") < svg.index("<circle")

    def test_style_colors(self, k4_layout):
        from edgemorph import with_color_roles

        layout = with_color_roles(k4_layout, blue=["p"], orange=["q"])
        schedule = Schedule(config=SLOWLIN, edges=(), makespan=0.0)
        svg = frame_at(layout, schedule, 0.0)
        assert 'fill="#1f77b4"' in svg
        assert 'fill="#ff7f0e"' in svg
        assert 'fill="#808080"' in svg

    def test_region_tint_halos(self, k4_layout):
        schedule = Schedule(config=SLOWLIN, edges=(), makespan=0.0)
        svg = frame_at(k4_layout, schedule, 0.0, regions=(("p", "q"), ("r",)))
        assert svg.count(HALO) == 3
        # the halos lie between the background and the first edge
        lines = svg.split("\n")
        first_halo = lines.index(halo_lines(svg)[0])
        first_line = next(k for k, line in enumerate(lines) if line.startswith("<line"))
        assert lines[first_halo - 1].startswith("<rect")
        assert lines[first_halo:first_line] == [
            '<circle cx="0.000" cy="0.000" r="14.000" fill="#ffd54d" fill-opacity="0.350"/>',
            '<circle cx="100.000" cy="0.000" r="14.000" fill="#ffd54d" fill-opacity="0.350"/>',
            '<circle cx="100.000" cy="100.000" r="14.000" fill="#ffd54d" fill-opacity="0.350"/>',
        ]
        plain = frame_at(k4_layout, schedule, 0.0)
        assert "\n".join(lines[:first_halo] + lines[first_line:]) == plain

    def test_region_with_unknown_node_is_usage_error(self, k4_layout):
        schedule = Schedule(config=SLOWLIN, edges=(), makespan=0.0)
        regions = (("p",), ("q", "nope"))
        frames = frame_texts(k4_layout, schedule, [0.0, 100.0], regions=regions)
        # raised by the first next(), before any frame is yielded
        with pytest.raises(UsageError, match=r"^regions name nodes not in the frame: \['nope'\]$"):
            next(frames)

    def test_stub_union_covers_segment_at_half(self, cross_layout, cross_schedule):
        ratio = ratios_at(cross_layout, SLOWLIN, cross_schedule, 1050.0)[("a", "b")]
        stub = stub_pair(cross_layout, ("a", "b"), ratio)
        sx, sy = stub.segment_source[1]
        tx, ty = stub.segment_target[1]
        assert abs(sx - tx) <= 1e-6 and abs(sy - ty) <= 1e-6

    def test_golden_five_node_fixture(self):
        svg = golden_fixture_svg()
        assert svg == GOLDEN.read_text(encoding="utf-8")


class TestRegionHalos:
    """Region halos are written once, into the head every frame shares."""

    def test_every_frame_of_a_long_export_carries_the_same_halos(self):
        layout, cfg, schedule = multi_start_schedule("sloweas", True)
        times = frame_timestamps(schedule.makespan, cfg.fps)
        assert len(times) > render.FRAME_BLOCK
        tinted = list(frame_texts(layout, schedule, times, regions=(("p", "t"), ("r",))))
        plain = list(frame_texts(layout, schedule, times))
        halos = halo_lines(tinted[0])
        assert len(halos) == 3
        for svg, untinted in zip(tinted, plain, strict=True):
            assert halo_lines(svg) == halos
            assert "\n".join(line for line in svg.split("\n") if HALO not in line) == untinted

    def test_no_regions_equals_the_exported_frames(self, tmp_path):
        layout, cfg, schedule = multi_start_schedule("fasteas", False)
        times = frame_timestamps(schedule.makespan, cfg.fps)
        written = export_animation(layout, cfg, schedule, tmp_path)
        texts = frame_texts(layout, schedule, times, regions=())
        for path, text in zip(written, texts, strict=True):
            assert path.read_bytes() == text.encode("utf-8")


class TestOwnConfig:
    """Frames are drawn under the schedule's own config and no other."""

    def test_frames_rest_at_the_schedules_own_delta0(self, cross_layout, cross_schedule):
        other = replace(cross_schedule, config=replace(SLOWLIN, delta0=0.1))
        for ratio, schedule in ((0.25, cross_schedule), (0.1, other)):
            stub = stub_pair(cross_layout, ("a", "b"), ratio)
            sx, sy = stub.segment_source[1]
            assert f'x2="{sx:.3f}" y2="{sy:.3f}"' in frame_at(cross_layout, schedule, 0.0)

    def test_another_config_is_refused_before_any_write(self, tmp_path):
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        cfg = PRESETS["sloweas"]
        placed_with = replace(cfg, tau_distinct=10.0)
        forged = replace(compute_schedule(layout, placed_with), config=cfg)
        for animated in (False, True):
            with pytest.raises(UsageError, match=r"^cfg must be the schedule's own config"):
                export_animation(layout, placed_with, forged, tmp_path / "out", animated=animated)
        assert not (tmp_path / "out").exists()


class TestSampleTimes:
    """Frame times must be finite and ascending; equal neighbours are fine."""

    @pytest.fixture(scope="class")
    def sample(self):
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        return layout, compute_schedule(layout, PRESETS["sloweas"])

    @pytest.mark.parametrize("times", [[3000.0, 0.0], [0.0, math.nan], [math.inf], [-math.inf]])
    def test_descending_or_non_finite_times_are_range_errors(self, sample, times):
        layout, schedule = sample
        with pytest.raises(RangeError, match="^sample times must be finite and ascending$"):
            next(frame_texts(layout, schedule, times))
        with pytest.raises(RangeError, match="finite and ascending"):
            stub_ratio_matrix(schedule.config, kernel_entries(layout, schedule), times)

    def test_descent_between_frame_blocks_is_a_range_error(self, sample, monkeypatch):
        layout, schedule = sample
        monkeypatch.setattr(render, "FRAME_BLOCK", 1)
        with pytest.raises(RangeError):
            next(frame_texts(layout, schedule, [3000.0, 0.0]))

    def test_equal_times_draw_equal_frames(self, sample):
        layout, schedule = sample
        first, second = frame_texts(layout, schedule, [3000.0, 3000.0])
        assert first == second == frame_at(layout, schedule, 3000.0)


class TestExport:
    def test_frame_count_for_example_makespan(self):
        # 2250 ms at 30 fps: the last frame index is ceil(67.5) = 68.
        stamps = frame_timestamps(2250.0, 30.0)
        assert len(stamps) == 69
        assert stamps[0] == 0.0
        assert stamps[-1] >= 2250.0

    def test_export_writes_frames(self, tmp_path, cross_layout, cross_schedule):
        written = export_animation(
            cross_layout, SLOWLIN, cross_schedule, tmp_path / "frames"
        )
        assert len(written) == 69
        assert written[0].name == "frame_000000.svg"
        assert written[-1].name == "frame_000068.svg"

    def test_frame_zero_equals_static_render(self, tmp_path, cross_layout, cross_schedule):
        written = export_animation(
            cross_layout, SLOWLIN, cross_schedule, tmp_path / "frames"
        )
        static = frame_at(cross_layout, cross_schedule, 0.0)
        assert written[0].read_text(encoding="utf-8") == static

    def test_animated_document(self, tmp_path, cross_layout, cross_schedule):
        written = export_animation(
            cross_layout,
            SLOWLIN,
            cross_schedule,
            tmp_path / "anim",
            frames=False,
            animated=True,
        )
        assert [p.name for p in written] == ["animation.svg"]
        text = written[0].read_text(encoding="utf-8")
        assert text.count("<animate ") == 8  # 2 edges x 2 stubs x 2 attributes
        assert 'repeatCount="indefinite"' in text
        assert text == (
            export_animation(
                cross_layout,
                SLOWLIN,
                cross_schedule,
                tmp_path / "anim2",
                frames=False,
                animated=True,
            )[0].read_text(encoding="utf-8")
        )


    @pytest.mark.parametrize(
        "frames, animated", [(True, False), (False, True)], ids=["frames", "animated"]
    )
    def test_frame_ceiling_fails_before_writing(
        self, tmp_path, cross_layout, frames, animated
    ):
        cfg = replace(SLOWLIN, fps=1e9)
        schedule = compute_schedule(cross_layout, cfg)
        with pytest.raises(ConfigError, match="frames"):
            export_animation(
                cross_layout, cfg, schedule, tmp_path / "out", frames=frames, animated=animated
            )
        assert not (tmp_path / "out").exists()

    def test_frame_ceiling_boundary(self):
        assert len(frame_timestamps(MAX_FRAMES - 1.0, 1000.0)) == MAX_FRAMES
        with pytest.raises(ConfigError):
            frame_timestamps(MAX_FRAMES - 0.5, 1000.0)
        with pytest.raises(ConfigError):
            frame_timestamps(1000.0, math.inf)


def scalar_ratio(cfg, scheduled, t):
    """Oracle: the per-edge, per-time piecewise definition, one scalar at a time."""
    if scheduled is None:
        return cfg.delta0
    i = bisect_right(scheduled.starts, t)
    if i == 0:
        return cfg.delta0
    anim = scheduled.animation
    start = scheduled.starts[i - 1]
    rel = t - start
    # The span ends on absolute times, the same rule as loop_ratio_series in
    # test_scheduling.py: t - start < total can round differently.
    if rel <= 0.0 or t >= start + anim.total:
        return cfg.delta0
    if rel < anim.tau:
        return cfg.delta0 + cfg.ratio_span * evaluate(cfg.easing, rel / anim.tau)
    if rel <= anim.tau + cfg.tau_half:
        return 0.5
    return cfg.delta0 + cfg.ratio_span * evaluate(
        cfg.easing, (anim.total - rel) / anim.tau
    )


def boundary_times(schedule):
    """Every phase boundary of every animation, and one ulp either side."""
    times = set()
    for se in schedule.edges:
        anim = se.animation
        for start in se.starts:
            for x in (
                start,
                start + anim.tau,
                start + anim.tau + schedule.config.tau_half,
                start + anim.total,
            ):
                times.update((math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))
    return sorted(times)


def multi_start_schedule(preset, keep_every_edge):
    """A horizon schedule on the five-node layout, optionally missing edges."""
    layout = five_node_layout()
    cfg = replace(PRESETS[preset], horizon=9000.0)
    schedule = compute_schedule(layout, cfg)
    assert max(len(se.starts) for se in schedule.edges) >= 2
    if not keep_every_edge:
        schedule = replace(schedule, edges=schedule.edges[::2])
    return layout, cfg, schedule


KERNEL_CASES = [
    ("slowlin", True),
    ("sloweas", True),
    ("fasteas", False),
    ("slowlin", False),
]


@pytest.mark.parametrize("preset, keep_every_edge", KERNEL_CASES)
def test_ratio_kernel_equals_scalar_definition(preset, keep_every_edge):
    layout, cfg, schedule = multi_start_schedule(preset, keep_every_edge)
    by_key = schedule.starts_by_key()
    scheduled = [by_key.get(edge.key) for edge in layout.edges]
    times = boundary_times(schedule)
    entries = kernel_entries(layout, schedule)
    matrix = stub_ratio_matrix(cfg, entries, times)
    expected = [[scalar_ratio(cfg, se, t) for t in times] for se in scheduled]
    assert matrix.tolist() == expected
    # every phase of the piecewise definition is exercised
    flat = matrix.ravel()
    assert np.any(flat == cfg.delta0) and np.any(flat == 0.5)
    assert np.any((flat > cfg.delta0) & (flat < 0.5))
    # a one-time grid, as for a single frame, samples the same column
    for col in range(0, len(times), 11):
        column = stub_ratio_matrix(cfg, entries, [times[col]])
        assert column[:, 0].tolist() == matrix[:, col].tolist()


def overlapping_schedule():
    """A five-node schedule whose edges restart mid-animation, starts unsorted."""
    layout, cfg, schedule = multi_start_schedule("sloweas", True)
    edges = []
    for k, se in enumerate(schedule.edges):
        anim = se.animation
        extra = (se.starts[0] + anim.tau / (k + 2), se.starts[-1] + anim.total / 2)
        edges.append(replace(se, starts=extra[k % 2 :] + se.starts))
    return layout, cfg, replace(schedule, edges=tuple(edges))


def assert_rows_equal_the_start_loop(cfg, entries, times):
    """Each matrix row is the per-start loop's series, a later start overwriting."""
    matrix = stub_ratio_matrix(cfg, entries, times)
    for row, entry in zip(matrix, entries):
        if entry is None:
            assert np.all(row == cfg.delta0)
        else:
            assert np.array_equal(row, loop_ratio_series(*entry, cfg, times))


@pytest.mark.parametrize(
    "case",
    [*KERNEL_CASES, "overlapping"],
    ids=lambda case: case if isinstance(case, str) else "-".join(map(str, case)),
)
def test_matrix_rows_equal_validator_series(case):
    """Each row is, to the last bit, the validator tests' start-by-start oracle."""
    if case == "overlapping":
        layout, cfg, schedule = overlapping_schedule()
    else:
        layout, cfg, schedule = multi_start_schedule(*case)
    entries = kernel_entries(layout, schedule)
    assert_rows_equal_the_start_loop(cfg, entries, np.array(boundary_times(schedule)))


half_ms = st.integers(-40, 160).map(lambda k: k / 2)


@given(
    preset=st.sampled_from(sorted(PRESETS)),
    hold=st.sampled_from([0.0, 2.5, 30.0]),
    grid=st.lists(st.integers(0, 200), min_size=1, max_size=80),
    rows=st.lists(
        st.none() | st.tuples(st.sampled_from([0.5, 4.0, 12.25]), st.lists(half_ms, max_size=6)),
        max_size=4,
    ),
)
# At 5.5 ms the later-listed start holds while the earlier-listed one grows.
@example(preset="slowlin", hold=2.5, grid=[11], rows=[(4.0, [5.0, 0.0])])
def test_matrix_rows_equal_the_start_loop_on_drawn_starts(preset, hold, grid, rows):
    # Unsorted, duplicate and overlapping starts on 0.5 ms steps, many of them
    # on grid times, which come with equal neighbours.
    cfg = replace(PRESETS[preset], tau_half=hold)
    entries = [
        None
        if row is None
        else (EdgeAnimation(EdgeSpec("a", "b"), row[0], 2.0 * row[0] + hold), tuple(row[1]))
        for row in rows
    ]
    assert_rows_equal_the_start_loop(cfg, entries, np.array(sorted(grid)) / 2)


SAMPLE_CASES = ["sample-sloweas", "sample-fastlin-h60s"]


def sample_schedule(case):
    """The sample layout at a low frame rate: most edge-frames rest at delta0,
    and under the 60 s horizon edges restart."""
    layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
    if case == "sample-sloweas":
        cfg = replace(PRESETS["sloweas"], fps=20.0)
    else:
        cfg = replace(PRESETS["fastlin"], fps=4.0, horizon=60_000.0)
    schedule = compute_schedule(layout, cfg)
    by_key = schedule.starts_by_key()
    entries = [(by_key[e.key].animation, by_key[e.key].starts) for e in layout.edges]
    times = frame_timestamps(schedule.makespan, cfg.fps)
    resting = stub_ratio_matrix(cfg, entries, times) == cfg.delta0
    assert 0.5 < resting.mean() < 1.0
    if cfg.horizon is not None:
        assert max(len(se.starts) for se in schedule.edges) >= 2
    return layout, cfg, schedule


def case_schedule(case):
    if case == "overlapping":
        return overlapping_schedule()
    if case in SAMPLE_CASES:
        return sample_schedule(case)
    return multi_start_schedule(*case)


def case_id(case):
    return case if isinstance(case, str) else "-".join(map(str, case))


_ANIMATED_STUB = re.compile(
    r'<line x1="[^"]*" y1="[^"]*" x2="([^"]*)" y2="([^"]*)"[^>]*>'
    r'<animate attributeName="x2"[^>]*? values="([^"]*)"[^>]*/>'
    r'<animate attributeName="y2"[^>]*? values="([^"]*)"'
)


# The drawing style, spelled out here rather than read from the code under test.
STROKE, STROKE_WIDTH, BACKGROUND, NODE_RADIUS = "#000000", 2.0, "#ffffff", 7.0
NODE_FILLS = {"plain": "#808080", "blue": "#1f77b4", "orange": "#ff7f0e"}


def reference_line(p1, p2, children=""):
    """The f-string line writer that the line templates replaced."""
    line = (
        f'<line x1="{p1[0]:.3f}" y1="{p1[1]:.3f}" x2="{p2[0]:.3f}" y2="{p2[1]:.3f}" '
        f'stroke="{STROKE}" stroke-width="{STROKE_WIDTH:.3f}"'
    )
    return f"{line}>{children}</line>" if children else f"{line}/>"


def reference_stubs(layout, cfg, schedule):
    """Per export frame, each edge's ``graph.stub_pair`` at the kernel's ratio."""
    times = frame_timestamps(schedule.makespan, cfg.fps)
    ratios = stub_ratio_matrix(cfg, kernel_entries(layout, schedule), times)
    return [
        [stub_pair(layout, edge, r) for edge, r in zip(layout.edges, column)]
        for column in ratios.T.tolist()
    ]


def reference_frames(layout, cfg, schedule):
    """Each export frame's text from :func:`reference_stubs`, written with
    :func:`reference_line`: the code under test shares only the ratio kernel."""
    head, tail = reference_ends(layout.nodes)
    for stubs in reference_stubs(layout, cfg, schedule):
        body = []
        for stub in stubs:
            (source, x1y1), (target, x2y2) = stub.segment_source, stub.segment_target
            if stub.ratio >= 0.5 - 1e-12:
                body.append(reference_line(source, target))
            else:
                body.append(f"{reference_line(source, x1y1)}\n{reference_line(target, x2y2)}")
        yield "\n".join([head, *body, tail])


@pytest.mark.parametrize("case", [*KERNEL_CASES, *SAMPLE_CASES], ids=case_id)
def test_animated_keyframes_equal_sampled_tips(tmp_path, case):
    layout, cfg, schedule = case_schedule(case)
    (path,) = export_animation(layout, cfg, schedule, tmp_path, frames=False, animated=True)
    stubs = _ANIMATED_STUB.findall(path.read_text(encoding="utf-8"))
    frames = reference_stubs(layout, cfg, schedule)
    assert len(stubs) == 2 * len(layout.edges)
    for i in range(len(layout.edges)):
        tips = [(f[i].segment_source[1], f[i].segment_target[1]) for f in frames]
        (x1, y1, source_x, source_y), (x2, y2, target_x, target_y) = (
            (x, y, xs.split(";"), ys.split(";")) for x, y, xs, ys in stubs[2 * i : 2 * i + 2]
        )
        assert source_x == [f"{s[0]:.3f}" for s, _ in tips]
        assert source_y == [f"{s[1]:.3f}" for s, _ in tips]
        assert target_x == [f"{t[0]:.3f}" for _, t in tips]
        assert target_y == [f"{t[1]:.3f}" for _, t in tips]
        # the static tip is the first keyframe
        assert (x1, y1, x2, y2) == (source_x[0], source_y[0], target_x[0], target_y[0])


@pytest.mark.parametrize(
    "case", ["cross", *KERNEL_CASES, "overlapping", *SAMPLE_CASES], ids=case_id
)
def test_exported_frames_match_resampling(tmp_path, cross_layout, case):
    """Every frame file equals the stub-pair reference frame at its time:
    eased, multi-start, missing edges, overlapping starts, and the sample
    layout, where most edge-frames rest."""
    if case == "cross":
        layout, cfg = cross_layout, SLOWLIN
        schedule = compute_schedule(layout, cfg)
    else:
        layout, cfg, schedule = case_schedule(case)
    written = export_animation(layout, cfg, schedule, tmp_path / "frames")
    for path, expected in zip(written, reference_frames(layout, cfg, schedule), strict=True):
        assert path.read_text(encoding="utf-8") == expected


def reference_ends(nodes):
    """Root element and background before the body, node disks after it."""
    x, y = min(n.x for n in nodes) - 10.0, min(n.y for n in nodes) - 10.0
    w = max(n.x for n in nodes) + 10.0 - x
    h = max(n.y for n in nodes) + 10.0 - y
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x:.3f} {y:.3f} {w:.3f} {h:.3f}">\n'
        f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" height="{h:.3f}" '
        f'fill="{BACKGROUND}"/>'
    )
    circles = [
        f'<circle cx="{n.x:.3f}" cy="{n.y:.3f}" r="{NODE_RADIUS:.3f}" '
        f'fill="{NODE_FILLS[n.color_role]}" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH:.3f}"/>'
        for n in nodes
    ]
    return head, "\n".join([*circles, "</svg>"]) + "\n"


def reference_export(layout, cfg, schedule):
    """Every frame's text, then the animated document, written with f-strings
    from the public ratio kernel and the affine tips (1 - r) a + r b."""
    times = frame_timestamps(schedule.makespan, cfg.fps)
    ratios = stub_ratio_matrix(cfg, kernel_entries(layout, schedule), times)
    anchors = [layout.endpoints(e) for e in layout.edges]
    sx, sy, tx, ty = np.array(anchors).reshape(-1, 4).T[:, :, None]
    rest = 1.0 - ratios
    tips = (
        rest * sx + ratios * tx,
        rest * sy + ratios * ty,
        rest * tx + ratios * sx,
        rest * ty + ratios * sy,
    )
    head, tail = reference_ends(layout.nodes)
    for k in range(len(times)):
        body = []
        for (source, target), r, x1, y1, x2, y2 in zip(
            anchors, *(a[:, k].tolist() for a in (ratios, *tips))
        ):
            if r >= 0.5 - 1e-12:
                body.append(reference_line(source, target))
            else:
                body.append(
                    f"{reference_line(source, (x1, y1))}\n{reference_line(target, (x2, y2))}"
                )
        yield "\n".join([head, *body, tail])
    duration = times[-1] if times[-1] > 0 else 1000.0 / cfg.fps
    key_times = ";".join(f"{t / duration:.6f}" for t in times)
    body = []
    for i, (source, target) in enumerate(anchors):
        for anchor, xs, ys in ((source, tips[0][i], tips[1][i]), (target, tips[2][i], tips[3][i])):
            children = ""
            for name, values in (("x2", xs.tolist()), ("y2", ys.tolist())):
                column = ";".join(f"{v:.3f}" for v in values)
                children += (
                    f'<animate attributeName="{name}" dur="{duration:.3f}ms" '
                    f'values="{column}" keyTimes="{key_times}" '
                    'calcMode="linear" repeatCount="indefinite"/>'
                )
            body.append(reference_line(anchor, (xs[0], ys[0]), children))
    yield "\n".join([head, *body, tail])


ORACLE_CASES = [*KERNEL_CASES, "overlapping", *SAMPLE_CASES, "sample-fastlin-cli"]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_exports_equal_reference_writer(tmp_path, case):
    """Frame files and animation.svg are the bytes the f-string writer gives:
    eased, multi-start, overlapping, and the sample under a 60 s horizon at
    the command line's 30 fps (holds and full lines)."""
    if case == "sample-fastlin-cli":
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        cfg = replace(PRESETS["fastlin"], horizon=60_000.0)
        schedule = compute_schedule(layout, cfg)
    else:
        layout, cfg, schedule = case_schedule(case)
    written = export_animation(layout, cfg, schedule, tmp_path, animated=True)
    expected = reference_export(layout, cfg, schedule)
    count = len(frame_timestamps(schedule.makespan, cfg.fps))
    assert [p.name for p in written] == [
        *(f"frame_{k:06d}.svg" for k in range(count)),
        "animation.svg",
    ]
    lines = set()
    for path, text in zip(written, expected, strict=True):
        assert path.read_text(encoding="utf-8") == text
        lines.add(text.count("<line"))
    # some frame draws a full line, the resting frames two stubs per edge
    assert min(lines) < 2 * len(layout.edges) == max(lines)


@given(st.floats())
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(1e308)
@example(0.0005)
@example(2.0005)
@example(-0.0004)
def test_number_format_is_three_decimals(value):
    assert render._NUMBER % value == format(value, ".3f")


@pytest.mark.parametrize("case", ["slowlin-True", "fasteas-False", "overlapping"])
def test_frame_blocks_do_not_change_bytes(tmp_path, monkeypatch, case):
    if case == "overlapping":
        layout, cfg, schedule = overlapping_schedule()
    else:
        preset, keep = case.split("-")
        layout, cfg, schedule = multi_start_schedule(preset, keep == "True")
    assert len(frame_timestamps(schedule.makespan, cfg.fps)) > render.FRAME_BLOCK
    exports = []
    for block in (1, render.FRAME_BLOCK, 10**9):
        monkeypatch.setattr(render, "FRAME_BLOCK", block)
        written = export_animation(layout, cfg, schedule, tmp_path / str(block))
        exports.append([path.read_bytes() for path in written])
    assert exports[0] == exports[1] == exports[2]


def test_frames_export_memory_does_not_grow_with_frames(tmp_path, monkeypatch):
    # Holding every frame's tips costs about 205 bytes per edge and frame:
    # 5.2 MiB for these 214 edges at 120 frames.
    layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
    schedule = compute_schedule(layout, PRESETS["sloweas"])
    monkeypatch.setattr(render, "FRAME_BLOCK", 8)
    for frames in (30, 120):
        cfg = replace(schedule.config, fps=(frames - 1) * 1000.0 / schedule.makespan)
        tracemalloc.start()
        try:
            written = export_animation(
                layout, cfg, replace(schedule, config=cfg), tmp_path / str(frames)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(written) == frames
        assert peak <= 1.5 * 2**20
