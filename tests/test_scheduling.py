import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

from edgemorph import (
    ConfigError,
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    PRESETS,
    ParseError,
    RangeError,
    Schedule,
    ScheduleReport,
    ScheduleViolation,
    ScheduledEdge,
    UsageError,
    compute_schedule,
    edge_animation,
    find_avoidable_crossings,
    forbidden_start_window,
    parse_layout,
    parse_schedule,
    schedule_mismatches,
    schedule_to_dict,
    schedule_to_json,
    slowdown,
    validate_schedule,
)
import edgemorph.scheduling as scheduling
from edgemorph.easing import CUBIC_KIND, EASE, LINEAR, EasingSpec, evaluate_many, invert
from edgemorph.kinematics import EdgeAnimation, ceil_ms
from edgemorph.scheduling import _window_max, conflict_constraints, sample_ratio_series
from conftest import DATA_DIR
from gen_layouts import synth_layout, valid_synth_layout

SLOWLIN = PRESETS["slowlin"]
FASTLIN = PRESETS["fastlin"]


def no_conflict_layout():
    """Two parallel horizontal edges, no crossings."""
    return GraphLayout(
        (
            NodeSpec("a", 0, 0),
            NodeSpec("b", 400, 0),
            NodeSpec("c", 0, 300),
            NodeSpec("d", 250, 300),
        ),
        (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
    )


class TestForbiddenStartWindow:
    def test_point_occupancy_instantiation(self):
        # Occupancy collapsed to one instant at 1000 ms; candidate needs
        # 500 ms to reach the point and 2100 ms in total.
        window = forbidden_start_window(500.0, 2100.0, (1000.0, 1000.0), 50.0)
        assert window == (-650.0, 550.0)

    def test_far_future_occupancy_leaves_zero_feasible(self):
        lo, hi = forbidden_start_window(500.0, 2100.0, (1e9, 1e9 + 100.0), 50.0)
        assert lo > 0.0

    def test_boundaries_are_feasible(self, cross_layout):
        # Equal-geometry edges crossing at both midpoints: the earliest
        # feasible second start is exactly the window's upper bound.
        anim = edge_animation(("a", "b"), cross_layout, SLOWLIN)
        occupancy = (1000.0, 1100.0)
        lo, hi = forbidden_start_window(1000.0, anim.total, occupancy, 50.0)
        assert hi == 150.0
        schedule = compute_schedule(cross_layout, SLOWLIN)
        starts = {se.animation.edge.key: se.starts for se in schedule.edges}
        assert starts[("c", "d")] == (150.0,)


class TestComputeSchedule:
    def test_no_conflicts_all_start_at_zero(self):
        layout = no_conflict_layout()
        schedule = compute_schedule(layout, SLOWLIN)
        assert all(se.starts == (0.0,) for se in schedule.edges)
        assert schedule.makespan == max(se.animation.total for se in schedule.edges)

    def test_two_crossing_edges_slow(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        starts = {se.animation.edge.key: se.starts for se in schedule.edges}
        assert starts[("a", "b")] == (0.0,)
        assert starts[("c", "d")] == (150.0,)
        assert schedule.makespan == 2250.0
        assert validate_schedule(cross_layout, SLOWLIN, schedule).passed

    def test_two_crossing_edges_fast(self, cross_layout):
        schedule = compute_schedule(cross_layout, FASTLIN)
        assert schedule.makespan == 1250.0
        slow = compute_schedule(cross_layout, SLOWLIN)
        assert 1.5 <= slow.makespan / schedule.makespan <= 2.0

    def test_processing_order_longest_first(self):
        # 410 px vertical edge crosses a 400 px horizontal one close enough to
        # its midpoint that both would cover the point near the same time.
        layout = GraphLayout(
            (
                NodeSpec("a", 0, 0),
                NodeSpec("b", 400, 0),
                NodeSpec("c", 195, -205),
                NodeSpec("d", 195, 205),
            ),
            (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
        schedule = compute_schedule(layout, SLOWLIN)
        starts = {se.animation.edge.key: se.starts for se in schedule.edges}
        # The longer vertical edge is placed first and wins time zero; the
        # horizontal edge reaches the point after 950 ms, so it must wait
        # until coverage [1025, 1125] plus 50 ms separation clears.
        assert starts[("c", "d")] == (0.0,)
        assert starts[("a", "b")] == (225.0,)

    def test_greedy_start_is_earliest_feasible(self, cross_layout):
        # Exhaustive search on the millisecond grid below the assigned start:
        # every earlier candidate must fail the sampling validator.
        schedule = compute_schedule(cross_layout, SLOWLIN)
        by_key = schedule.starts_by_key()
        first = by_key[("a", "b")]
        second = by_key[("c", "d")]
        assigned = second.starts[0]
        assert assigned == 150.0
        for candidate in range(0, 150):
            hand_built = Schedule(
                config=SLOWLIN,
                edges=(
                    ScheduledEdge(first.animation, (0.0,)),
                    ScheduledEdge(second.animation, (float(candidate),)),
                ),
                makespan=float(candidate) + second.animation.total,
            )
            report = validate_schedule(cross_layout, SLOWLIN, hand_built)
            assert not report.passed, f"start {candidate} should conflict"

    def test_deterministic_and_byte_identical(self, cross_layout):
        a = compute_schedule(cross_layout, SLOWLIN)
        b = compute_schedule(cross_layout, SLOWLIN)
        assert a == b
        assert schedule_to_json(a) == schedule_to_json(b)

    def test_sound_on_random_layouts(self):
        rng = random.Random(31337)
        for _ in range(6):
            layout = valid_synth_layout(rng.randrange(10**6), n_nodes=rng.randint(10, 25))
            for cfg in (SLOWLIN, PRESETS["sloweas"]):
                schedule = compute_schedule(layout, cfg)
                report = validate_schedule(layout, cfg, schedule)
                assert report.passed, report.violations[:3]

    def test_makespan_non_increasing_in_speed_without_conflicts(self):
        layout = no_conflict_layout()
        slow = compute_schedule(layout, SLOWLIN).makespan
        fast = compute_schedule(layout, FASTLIN).makespan
        assert fast <= slow


def scalar_constraints(layout, cfg):
    """(key_a, key_b, reach_a, reach_b) per crossing object, one inversion each."""
    taus = {e.key: edge_animation(e, layout, cfg).tau for e in layout.edges}

    def reach(edge, ratio):
        progress = (min(ratio, 1.0 - ratio) - cfg.delta0) / cfg.ratio_span
        return taus[edge.key] * invert(cfg.easing, progress)

    return [
        (c.edge_a.key, c.edge_b.key, reach(c.edge_a, c.ratio_a), reach(c.edge_b, c.ratio_b))
        for c in find_avoidable_crossings(layout, cfg.delta0)
    ]


def quadratic_schedule(layout, cfg):
    """Reference placement: every search rebuilds and sorts every partner window.

    Repeat passes retry every edge until a whole pass places nothing. The
    reaches come from the crossing objects one at a time, not from
    :func:`conflict_constraints`.
    """
    animations = {e.key: edge_animation(e, layout, cfg) for e in layout.edges}
    partners = {key: [] for key in animations}
    for key_a, key_b, reach_a, reach_b in scalar_constraints(layout, cfg):
        partners[key_a].append((key_b, reach_a, reach_b))
        partners[key_b].append((key_a, reach_b, reach_a))
    order = sorted(animations, key=lambda k: (-animations[k].tau, k))
    starts = {key: [] for key in animations}

    def windows_for(key):
        own_total = animations[key].total
        out = []
        for other, reach_self, reach_other in partners[key]:
            other_total = animations[other].total
            for ts in starts[other]:
                occupancy = (ts + reach_other, ts + other_total - reach_other)
                out.append(
                    forbidden_start_window(
                        reach_self, own_total, occupancy, cfg.tau_distinct
                    )
                )
        return out

    def earliest_feasible(base, windows):
        c = ceil_ms(max(base, 0.0))
        for lo, hi in sorted(windows):
            if c <= lo:
                break
            if c < hi:
                c = ceil_ms(hi)
        return c

    for key in order:
        starts[key].append(earliest_feasible(0.0, windows_for(key)))
    if cfg.horizon is not None:
        progressed = True
        while progressed:
            progressed = False
            for key in order:
                base = starts[key][-1] + animations[key].total + cfg.tau_distinct
                candidate = earliest_feasible(base, windows_for(key))
                if candidate + animations[key].total <= cfg.horizon + 1e-6:
                    starts[key].append(candidate)
                    progressed = True
    edges = tuple(
        ScheduledEdge(animations[key], tuple(starts[key])) for key in sorted(animations)
    )
    makespan = max(
        (ts + se.animation.total for se in edges for ts in se.starts), default=0.0
    )
    return Schedule(config=cfg, edges=edges, makespan=makespan)


class TestQuadraticOracle:
    """The incremental window lists place exactly what a full rebuild places."""

    @pytest.mark.parametrize("preset", ["slowlin", "sloweas", "fastlin", "fasteas"])
    @pytest.mark.parametrize("seed", [7, 4242, 90001])
    def test_synth_layouts_with_and_without_horizon(self, seed, preset):
        layout = synth_layout(seed, n_nodes=18, density=3.0, spacing=200, bias=1.5)
        cfg = PRESETS[preset]
        single = compute_schedule(layout, cfg)
        assert single == quadratic_schedule(layout, cfg)
        repeated = replace(cfg, horizon=3.0 * single.makespan)
        schedule = compute_schedule(layout, repeated)
        assert schedule == quadratic_schedule(layout, repeated)
        assert sum(len(se.starts) for se in schedule.edges) > 2 * len(schedule.edges)

    @pytest.mark.parametrize("horizon_factor", [None, 2.0])
    def test_zero_distinctness(self, horizon_factor):
        layout = synth_layout(11, n_nodes=16, density=3.0, spacing=200, bias=1.5)
        cfg = replace(PRESETS["sloweas"], tau_distinct=0.0)
        if horizon_factor is not None:
            single = compute_schedule(layout, cfg).makespan
            cfg = replace(cfg, horizon=horizon_factor * single)
        assert compute_schedule(layout, cfg) == quadratic_schedule(layout, cfg)

    def test_candidate_exactly_on_window_end(self, cross_layout):
        # The second edge's earliest start is the upper end of its only
        # window; the window is open, so that instant is feasible.
        anim_ab = edge_animation(("a", "b"), cross_layout, SLOWLIN)
        anim_cd = edge_animation(("c", "d"), cross_layout, SLOWLIN)
        ((_, _, reach_ab, reach_cd),) = scalar_constraints(cross_layout, SLOWLIN)
        occupancy = (0.0 + reach_ab, 0.0 + anim_ab.total - reach_ab)
        _, hi = forbidden_start_window(
            reach_cd, anim_cd.total, occupancy, SLOWLIN.tau_distinct
        )
        for cfg in (SLOWLIN, replace(SLOWLIN, horizon=12000.0)):
            schedule = compute_schedule(cross_layout, cfg)
            assert schedule.starts_by_key()[("c", "d")].starts[0] == hi
            assert schedule == quadratic_schedule(cross_layout, cfg)

    def test_retired_edges_while_others_keep_placing(self):
        # A horizon just past the first pass: long edges cannot repeat and
        # retire after one pass, short ones go on placing for several.
        layout = synth_layout(5, n_nodes=20, density=3.0, spacing=200, bias=1.5)
        cfg = PRESETS["fastlin"]
        single = compute_schedule(layout, cfg)
        cfg = replace(cfg, horizon=1.3 * single.makespan)
        schedule = compute_schedule(layout, cfg)
        counts = [len(se.starts) for se in schedule.edges]
        assert min(counts) == 1 and max(counts) >= 3
        assert schedule == quadratic_schedule(layout, cfg)

    def test_tight_horizons_on_small_layouts(self):
        rng = random.Random(2718)
        for _ in range(12):
            layout = synth_layout(rng.randrange(10**6), n_nodes=rng.randint(6, 14))
            cfg = PRESETS[rng.choice(sorted(PRESETS))]
            single = compute_schedule(layout, cfg).makespan
            cfg = replace(cfg, horizon=rng.uniform(1.0, 2.5) * single)
            assert compute_schedule(layout, cfg) == quadratic_schedule(layout, cfg)


class TestConflictConstraints:
    """The table's reaches are the per-crossing scalar ones, bit for bit."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("name", ["sample", "synth_n150"])
    def test_columns_equal_scalar_reaches(self, name, preset):
        if name == "sample":
            layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        else:
            layout = synth_layout(1, 150, 4, spacing=200, bias=1.5)
        cfg = PRESETS[preset]
        taus = np.array([edge_animation(e, layout, cfg).tau for e in layout.edges])
        a, b, reach_a, reach_b = conflict_constraints(layout, cfg, taus)
        expected = scalar_constraints(layout, cfg)
        assert len(expected) > 500
        keys = [e.key for e in layout.edges]
        assert [(keys[p], keys[q]) for p, q in zip(a.tolist(), b.tolist())] == [
            (key_a, key_b) for key_a, key_b, _, _ in expected
        ]
        assert reach_a.tolist() == [r for _, _, r, _ in expected]
        assert reach_b.tolist() == [r for _, _, _, r in expected]

    def test_no_crossings(self):
        layout = no_conflict_layout()
        columns = conflict_constraints(layout, SLOWLIN, np.array([1000.0, 800.0]))
        assert [len(column) for column in columns] == [0, 0, 0, 0]


class TestHorizonRepeats:
    def test_repeats_fill_the_horizon(self, cross_layout):
        base = compute_schedule(cross_layout, SLOWLIN)
        cfg = replace(SLOWLIN, horizon=3.0 * base.makespan)
        schedule = compute_schedule(cross_layout, cfg)
        for se in schedule.edges:
            assert len(se.starts) >= 2
            for prev, nxt in zip(se.starts, se.starts[1:]):
                assert nxt - prev >= se.animation.total + cfg.tau_distinct - 1e-9
            assert se.starts[-1] + se.animation.total <= cfg.horizon + 1e-9
        assert validate_schedule(cross_layout, cfg, schedule).passed

    def test_no_horizon_means_single_pass(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        assert all(len(se.starts) == 1 for se in schedule.edges)

    def test_horizon_too_small(self, cross_layout):
        cfg = replace(SLOWLIN, horizon=1000.0)
        with pytest.raises(ConfigError):
            compute_schedule(cross_layout, cfg)

    def test_repeat_passes_sound_on_random_layouts(self):
        rng = random.Random(1606)
        for _ in range(4):
            layout = valid_synth_layout(
                rng.randrange(10**6), n_nodes=rng.randint(8, 20)
            )
            base_cfg = PRESETS["fasteas"]
            single = compute_schedule(layout, base_cfg)
            cfg = replace(base_cfg, horizon=2.5 * single.makespan)
            schedule = compute_schedule(layout, cfg)
            assert sum(len(se.starts) for se in schedule.edges) > len(schedule.edges)
            report = validate_schedule(layout, cfg, schedule)
            assert report.passed, report.violations[:3]


class TestValidateSchedule:
    def test_simultaneous_crossing_fails_near_reach_time(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        bad = Schedule(
            config=SLOWLIN,
            edges=tuple(
                ScheduledEdge(se.animation, (0.0,)) for se in schedule.edges
            ),
            makespan=2100.0,
        )
        report = validate_schedule(cross_layout, SLOWLIN, bad)
        assert not report.passed
        violation = report.violations[0]
        assert violation.kind == "crossing-separation"
        # Both edges reach the midpoint 1000 ms in.
        assert abs(violation.time_ms - 1000.0) <= 50.0

    def test_start_separation_violation(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        se = schedule.starts_by_key()[("a", "b")]
        bad = Schedule(
            config=SLOWLIN,
            edges=(ScheduledEdge(se.animation, (0.0, se.animation.total + 10.0)),),
            makespan=2.0 * se.animation.total + 10.0,
        )
        report = validate_schedule(cross_layout, SLOWLIN, bad)
        assert any(v.kind == "start-separation" for v in report.violations)

    def test_negative_start_breaks_initial_frame(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        se = schedule.starts_by_key()[("a", "b")]
        bad = Schedule(
            config=SLOWLIN,
            edges=(ScheduledEdge(se.animation, (-500.0,)),),
            makespan=se.animation.total,
        )
        report = validate_schedule(cross_layout, SLOWLIN, bad)
        kinds = {v.kind for v in report.violations}
        # mid-animation at time zero, and the start itself is negative
        assert "initial-frame" in kinds
        assert "start-separation" in kinds

    @pytest.mark.parametrize("eased", [1.25, -0.25], ids=["above", "below"])
    def test_ratio_range_violations_are_reported(self, cross_layout, monkeypatch, eased):
        # Edge (a, b) starts at 0 and (c, d) at 150; both animate for 2 100 ms on
        # a 1 ms grid. So batch index 2 is (a, b) at t = 3 (index 9, at t = 10,
        # is not listed: one violation per entry) and the last is (c, d) at
        # t = 2 249.
        schedule = compute_schedule(cross_layout, SLOWLIN)
        assert [se.starts for se in schedule.edges] == [(0.0,), (150.0,)]
        real = scheduling.evaluate_many

        def off_the_curve(spec, fracs):
            out = real(spec, fracs)
            out[[2, 9, -1]] = eased
            return out

        monkeypatch.setattr(scheduling, "evaluate_many", off_the_curve)
        report = validate_schedule(cross_layout, SLOWLIN, schedule)
        ratio = SLOWLIN.delta0 + SLOWLIN.ratio_span * eased
        assert report.violation_counts == (("ratio-range", 2),)
        assert report.violations == (
            ScheduleViolation("ratio-range", 3.0, (("a", "b"),), f"ratio {ratio}"),
            ScheduleViolation("ratio-range", 2249.0, (("c", "d"),), f"ratio {ratio}"),
        )

    def test_empty_schedule_passes(self, cross_layout):
        empty = Schedule(config=SLOWLIN, edges=(), makespan=0.0)
        assert validate_schedule(cross_layout, SLOWLIN, empty).passed

    def test_edges_without_starts_pass(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        silent = Schedule(
            config=SLOWLIN,
            edges=tuple(ScheduledEdge(se.animation, ()) for se in schedule.edges),
            makespan=0.0,
        )
        assert validate_schedule(cross_layout, SLOWLIN, silent).passed


def loop_ratio_series(anim, starts, cfg, times):
    """Reference sampler: one start at a time, a later start overwriting."""
    t = np.asarray(times, dtype=float)
    out = np.full(t.shape, cfg.delta0)
    for ts in starts:
        lo = int(np.searchsorted(t, ts, side="right"))
        hi = int(np.searchsorted(t, ts + anim.total, side="left"))
        if lo >= hi:
            continue
        rel = t[lo:hi] - ts
        seg = np.full(rel.shape, 0.5)
        growing = rel < anim.tau
        retracting = rel > anim.tau + cfg.tau_half
        if np.any(growing):
            seg[growing] = cfg.delta0 + cfg.ratio_span * evaluate_many(
                cfg.easing, rel[growing] / anim.tau
            )
        if np.any(retracting):
            seg[retracting] = cfg.delta0 + cfg.ratio_span * evaluate_many(
                cfg.easing, (anim.total - rel[retracting]) / anim.tau
            )
        out[lo:hi] = seg
    return out


def dense_validate_schedule(layout, cfg, schedule):
    """Reference validator: every edge sampled and dilated over the whole 1 ms grid.

    The validator as it was before span sampling, without its grid-size
    guards, counting violations as well as listing the first 100. A crossing
    threshold is the nearer ratio less float noise, but above delta0: a
    resting stub covers no crossing.
    """
    eps_ms, eps_ratio = 1e-6, 1e-12
    least = np.nextafter(cfg.delta0, 1.0)
    by_key = schedule.starts_by_key()
    end = schedule.makespan
    for se in schedule.edges:
        for ts in se.starts:
            end = max(end, ts + se.animation.total)
    count = int(np.floor(max(end, 0.0))) + 1
    times = np.arange(count, dtype=float)
    violations = []
    counts = {}

    def add(kind, time_ms, edges, detail):
        counts[kind] = counts.get(kind, 0) + 1
        if len(violations) < 100:
            violations.append(ScheduleViolation(kind, time_ms, edges, detail))

    for se in schedule.edges:
        key = se.animation.edge.key
        prev = None
        for ts in se.starts:
            if ts < 0.0:
                add("start-separation", ts, (key,), "negative start")
            ends = ts + se.animation.total
            if cfg.horizon is not None and ends > cfg.horizon + eps_ms:
                add("horizon", ts, (key,), f"ends at {ends} ms > horizon {cfg.horizon} ms")
            if prev is not None:
                needed = se.animation.total + cfg.tau_distinct
                if ts - prev < needed - eps_ms:
                    add(
                        "start-separation",
                        ts,
                        (key,),
                        f"gap {ts - prev} ms < animation + distinctness {needed} ms",
                    )
            prev = ts

    series = {}
    for se in schedule.edges:
        key = se.animation.edge.key
        values = loop_ratio_series(se.animation, se.starts, cfg, times)
        series[key] = values
        if abs(values[0] - cfg.delta0) > eps_ratio:
            add("initial-frame", 0.0, (key,), f"ratio {values[0]} at time 0")
        bad = (values < cfg.delta0 - eps_ratio) | (values > 0.5 + eps_ratio)
        if np.any(bad):
            i = int(np.argmax(bad))
            add("ratio-range", float(times[i]), (key,), f"ratio {values[i]}")

    lag = int(np.floor(cfg.tau_distinct - eps_ms))
    if lag >= 0:
        for crossing in find_avoidable_crossings(layout, cfg.delta0):
            key_a, key_b = crossing.edge_a.key, crossing.edge_b.key
            if key_a not in by_key or key_b not in by_key:
                continue
            nearer_a = min(crossing.ratio_a, 1.0 - crossing.ratio_a)
            nearer_b = min(crossing.ratio_b, 1.0 - crossing.ratio_b)
            dilated_b = maximum_filter1d(
                series[key_b], size=2 * lag + 1, mode="constant", cval=cfg.delta0
            )
            clash = (series[key_a] >= max(nearer_a - eps_ratio, least)) & (
                dilated_b >= max(nearer_b - eps_ratio, least)
            )
            if np.any(clash):
                i = int(np.argmax(clash))
                add(
                    "crossing-separation",
                    float(times[i]),
                    (key_a, key_b),
                    f"both within {cfg.tau_distinct} ms of crossing "
                    f"({crossing.point[0]:.3f}, {crossing.point[1]:.3f})",
                )

    return ScheduleReport(
        passed=not violations,
        sample_count=count,
        violations=tuple(violations),
        violation_counts=tuple(sorted(counts.items())),
    )


def schedule_variants(layout, schedule, rng):
    """The schedule itself plus hand-broken copies of it, by name."""
    edges = list(schedule.edges)
    keys = [se.animation.edge.key for se in edges]
    index = {key: i for i, key in enumerate(keys)}

    def with_starts(changes):
        out = list(edges)
        for i, starts in changes.items():
            out[i] = ScheduledEdge(out[i].animation, tuple(starts))
        makespan = max(
            (ts + se.animation.total for se in out for ts in se.starts), default=0.0
        )
        return Schedule(config=schedule.config, edges=tuple(out), makespan=makespan)

    picks = rng.sample(range(len(edges)), 6)
    crossing = find_avoidable_crossings(layout, schedule.config.delta0)[0]
    a, b = index[crossing.edge_a.key], index[crossing.edge_b.key]
    first = edges[picks[0]]
    return {
        "valid": schedule,
        "shifted": with_starts(
            {
                i: sorted(max(0.0, ts + rng.uniform(-400.0, 400.0)) for ts in edges[i].starts)
                for i in picks
            }
        ),
        "crossing partners together": with_starts({b: edges[a].starts}),
        "too-close starts": with_starts(
            {picks[0]: (first.starts[0], first.starts[0] + 0.5 * first.animation.total)}
        ),
        "negative start": with_starts({picks[1]: (-0.4 * edges[picks[1]].animation.total,)}),
        "edges missing": Schedule(
            config=schedule.config,
            edges=tuple(se for i, se in enumerate(edges) if i not in picks[:3]),
            makespan=schedule.makespan,
        ),
        "edges without starts": with_starts({i: () for i in picks[2:5]}),
        "unsorted starts": with_starts(
            {picks[5]: (edges[picks[5]].starts[0] + 5000.0, edges[picks[5]].starts[0])}
        ),
        "all at zero": with_starts({i: (0.0,) for i in range(len(edges))}),
    }


class TestDenseOracle:
    """Span sampling reports exactly what sampling the whole grid reports."""

    # Besides the presets' 50 ms, distinctness times of 100 ms and 17 ms:
    # windows of 99 and 16 samples on each side.
    @pytest.mark.parametrize(
        "preset, distinct_scale",
        [
            ("slowlin", 1.0),
            ("sloweas", 1.0),
            ("fastlin", 1.0),
            ("fasteas", 1.0),
            ("sloweas", 2.0),
            ("fastlin", 0.34),
        ],
    )
    def test_synth_schedules(self, preset, distinct_scale):
        layout = synth_layout(53, n_nodes=12, density=2.5, spacing=200, bias=1.5)
        cfg = PRESETS[preset]
        cfg = replace(cfg, tau_distinct=round(distinct_scale * cfg.tau_distinct))
        single = compute_schedule(layout, cfg)
        repeated = compute_schedule(layout, replace(cfg, horizon=1.5 * single.makespan))
        rng = random.Random(f"{preset}-{distinct_scale}")
        seen = set()
        for schedule in (single, repeated):
            # The repeated schedule's own config holds its horizon.
            for name, variant in schedule_variants(layout, schedule, rng).items():
                report = validate_schedule(layout, schedule.config, variant)
                assert report == dense_validate_schedule(layout, schedule.config, variant), name
                if name in ("valid", "edges missing", "edges without starts"):
                    assert report.passed, name
                elif name != "shifted":
                    assert not report.passed, name
                seen.update(dict(report.violation_counts))
        assert seen == {"crossing-separation", "start-separation", "initial-frame", "horizon"}

    def test_listing_is_capped_and_counts_are_not(self):
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        schedule = compute_schedule(layout, SLOWLIN)
        edges = tuple(ScheduledEdge(se.animation, (0.0,)) for se in schedule.edges)
        at_zero = replace(schedule, edges=edges)
        report = validate_schedule(layout, SLOWLIN, at_zero)
        assert report == dense_validate_schedule(layout, SLOWLIN, at_zero)
        assert len(report.violations) == 100
        assert dict(report.violation_counts)["crossing-separation"] > 100

    @pytest.mark.parametrize("offset_px", [1e-7, 0.15, 4.85])
    def test_clash_on_the_ends_of_the_widened_span(self, offset_px):
        # c-d crosses a-b offset_px beyond its resting stub: 1e-7 px keeps it
        # covering the point on every sample of its span, the others make it
        # start or stop covering one or about lag samples inside the span.
        # a-b covers the point only while fully drawn. Quarter-millisecond
        # moves of a-b across both ends of c-d's coverage put the first
        # clash on each sample near the ends of c-d's widened span.
        layout = GraphLayout(
            (
                NodeSpec("a", 0.0, 0.0),
                NodeSpec("b", 100.0, 0.0),
                NodeSpec("c", 50.0, -25.0 - offset_px),
                NodeSpec("d", 50.0, 75.0 - offset_px),
            ),
            (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
        (crossing,) = find_avoidable_crossings(layout, SLOWLIN.delta0)
        nearer = crossing.ratio_b
        assert crossing.ratio_b - SLOWLIN.delta0 > 1e-12
        ab, cd = (edge_animation(edge, layout, SLOWLIN) for edge in layout.edges)
        cd_start = 5000.0
        grid = np.arange(7000.0)
        ratio = sample_ratio_series(cd, (cd_start,), SLOWLIN, grid)
        covered = grid[ratio >= nearer - 1e-12]
        after = covered[-1] + SLOWLIN.tau_distinct - ab.tau
        before = covered[0] - SLOWLIN.tau_distinct - ab.tau - SLOWLIN.tau_half
        for base in (after, before):
            verdicts = set()
            for k in range(-8, 9):
                edges = (
                    ScheduledEdge(ab, (base + 0.25 * k,)),
                    ScheduledEdge(cd, (cd_start,)),
                )
                makespan = max(base + 0.25 * k + ab.total, cd_start + cd.total)
                schedule = Schedule(config=SLOWLIN, edges=edges, makespan=makespan)
                report = validate_schedule(layout, SLOWLIN, schedule)
                assert report == dense_validate_schedule(layout, SLOWLIN, schedule)
                verdicts.add(report.passed)
            assert verdicts == {True, False}

    def test_resting_ratio_within_noise_of_a_crossing(self):
        # The crossing sits at ratio 0.3 of a-b, and delta0 lies 5e-13 below
        # it. The resting stub still covers no crossing: a-b covers the point
        # only while it animates, as the scheduler assumes.
        layout = GraphLayout(
            (
                NodeSpec("a", 0.0, 0.0),
                NodeSpec("b", 100.0, 0.0),
                NodeSpec("c", 30.0, -50.0),
                NodeSpec("d", 30.0, 50.0),
            ),
            (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
        cfg = replace(SLOWLIN, delta0=0.3 - 5e-13)
        (crossing,) = find_avoidable_crossings(layout, cfg.delta0)
        assert crossing.ratio_a - 1e-12 <= cfg.delta0 < crossing.ratio_a
        schedule = compute_schedule(layout, cfg)
        ab, cd = schedule.edges

        def with_cd_at(start):
            edges = (ScheduledEdge(ab.animation, (0.0,)), ScheduledEdge(cd.animation, (start,)))
            makespan = max(ab.animation.total, start + cd.animation.total)
            return replace(schedule, edges=edges, makespan=makespan)

        apart = with_cd_at(ab.animation.total + 1000.0)
        inside = with_cd_at(0.25 * ab.animation.total)
        for variant in (schedule, apart, inside):
            report = validate_schedule(layout, cfg, variant)
            assert report == dense_validate_schedule(layout, cfg, variant)
            assert report.passed == (variant is not inside)
        assert report.violation_counts == (("crossing-separation", 1),)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_computed_schedules_pass_with_a_crossing_near_rest(self, preset):
        # delta0 lies 5e-13 below the first crossing's nearer ratio, on the
        # nearer of its two edges: that edge's resting stub lies within
        # float noise of the point but still does not cover it.
        for seed in range(1, 6):
            layout = synth_layout(seed, n_nodes=12, density=2.5, spacing=200, bias=1.5)
            crossing = find_avoidable_crossings(layout, PRESETS[preset].delta0)[0]
            ratios = (crossing.ratio_a, crossing.ratio_b)
            nearer = min(min(ratio, 1.0 - ratio) for ratio in ratios)
            cfg = replace(PRESETS[preset], delta0=nearer - 5e-13)
            schedule = compute_schedule(layout, cfg)
            report = validate_schedule(layout, cfg, schedule)
            assert report == dense_validate_schedule(layout, cfg, schedule), seed
            assert report.passed, (seed, report.violations)

    @pytest.mark.parametrize("preset", ["fastlin", "fasteas"])
    def test_edge_with_more_crossings_than_a_byte_counts(self, preset, monkeypatch):
        # One long edge crossed by 300 short ones: its 300 thresholds need
        # 16-bit levels. Mirrored crossings share their nearer ratio.
        xs = [400.0 + 2.0 * k for k in range(150)]
        xs += [1500.0 - x for x in xs]
        nodes = [NodeSpec("z0", 0.0, 0.0), NodeSpec("z1", 1500.0, 0.0)]
        edges = [EdgeSpec("z0", "z1")]
        for k, x in enumerate(xs):
            nodes += [NodeSpec(f"v{k:03d}", x, -30.0 - k % 20), NodeSpec(f"w{k:03d}", x, 70.0)]
            edges.append(EdgeSpec(f"v{k:03d}", f"w{k:03d}"))
        layout = GraphLayout(tuple(nodes), tuple(edges))
        cfg = PRESETS[preset]
        assert len(find_avoidable_crossings(layout, cfg.delta0)) == 300
        dtypes = set()

        def recorded(values, lag):
            dtypes.add(values.dtype)
            return _window_max(values, lag)

        monkeypatch.setattr(scheduling, "_window_max", recorded)
        schedule = compute_schedule(layout, cfg)
        variants = schedule_variants(layout, schedule, random.Random(preset))
        # Every short edge covers its crossing while the long one is fully
        # drawn, where the long edge's level is above 255.
        long = edge_animation(edges[0], layout, cfg)
        hold_middle = long.tau + 0.5 * cfg.tau_half
        entries = [ScheduledEdge(long, (0.0,))]
        for edge in edges[1:]:
            anim = edge_animation(edge, layout, cfg)
            entries.append(ScheduledEdge(anim, (hold_middle - 0.5 * anim.total,)))
        variants["during the hold"] = Schedule(cfg, tuple(entries), long.total)
        for name in ("valid", "crossing partners together", "during the hold"):
            report = validate_schedule(layout, cfg, variants[name])
            assert report == dense_validate_schedule(layout, cfg, variants[name]), name
            assert report.passed == (name == "valid"), name
        assert dict(report.violation_counts) == {"crossing-separation": 300}
        assert np.dtype(np.uint16) in dtypes


EASE_IN_OUT = EasingSpec(CUBIC_KIND, 0.42, 0.0, 0.58, 1.0)


class TestSampleRatioSeries:
    """The one-pass sampler gives the per-start loop's ratios bit for bit."""

    @pytest.mark.parametrize("easing", [LINEAR, EASE, EASE_IN_OUT], ids=["linear", "ease", "in-out"])
    @pytest.mark.parametrize("step_ms", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("tau", [200.0, 437.3])
    def test_matches_the_start_loop(self, easing, step_ms, tau):
        cfg = replace(SLOWLIN, easing=easing)
        anim = EdgeAnimation(EdgeSpec("a", "b"), tau=tau, total=2.0 * tau + cfg.tau_half)
        times = np.arange(6000) * step_ms
        on_grid = float(times[300])
        apart = anim.total + cfg.tau_distinct
        cases = {
            "on grid points": (on_grid, float(times[300 + round(apart / step_ms) + 1])),
            "separated": tuple(100.0 + k * apart for k in range(5)),
            "negative": (-0.6 * anim.total, -5.0 * anim.total, 2000.0),
            "duplicate": (on_grid, on_grid),
            "overlapping": (500.0, 500.0 + 0.3 * anim.total, 500.0 + 0.9 * anim.total),
            "unsorted": (2500.0, 400.0, 2500.0 - 0.5 * anim.total, 10.0),
            "beyond the grid": (float(times[-1]) - 0.1, float(times[-1]) + 3.0),
            "empty": (),
        }
        for name, starts in cases.items():
            for grid in (times, times[37:2900]):
                got = sample_ratio_series(anim, starts, cfg, grid)
                assert np.array_equal(got, loop_ratio_series(anim, starts, cfg, grid)), name


def test_duplicate_entry_does_not_hide_a_clash():
    layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
    schedule = compute_schedule(layout, FASTLIN)
    crossing = find_avoidable_crossings(layout, FASTLIN.delta0)[0]
    by_key = schedule.starts_by_key()
    clean = by_key[crossing.edge_a.key]
    moved = ScheduledEdge(clean.animation, by_key[crossing.edge_b.key].starts)

    def with_entries(edges):
        makespan = max(ts + se.animation.total for se in edges for ts in se.starts)
        return replace(schedule, edges=edges, makespan=makespan)

    clashing = tuple(moved if se is clean else se for se in schedule.edges)
    report = validate_schedule(layout, FASTLIN, with_entries(clashing))
    assert report.violation_counts == (("crossing-separation", 1),)

    report = validate_schedule(layout, FASTLIN, with_entries(clashing + (clean,)))
    assert not report.passed
    assert report.violations[0] == ScheduleViolation(
        "duplicate-edge", None, (crossing.edge_a.key,), "scheduled 2 times"
    )
    assert report.violation_counts == (("duplicate-edge", 1),)

    # Per-entry checks still see every entry of a duplicated edge.
    early = ScheduledEdge(clean.animation, (-0.5 * clean.animation.total,))
    report = validate_schedule(layout, FASTLIN, with_entries(clashing + (clean, early)))
    counts = dict(report.violation_counts)
    assert counts["duplicate-edge"] == 1
    assert report.violations[0].detail == "scheduled 3 times"
    assert counts["start-separation"] == 1 and counts["initial-frame"] == 1


@pytest.fixture(scope="module")
def bench_scale():
    """A synth n=150 `sloweas` schedule, and a copy with a fifth of it shifted."""
    layout = synth_layout(1, 150, 4, spacing=200, bias=1.5)
    cfg = PRESETS["sloweas"]
    schedule = compute_schedule(layout, cfg)
    rng = random.Random(11)
    edges = []
    for se in schedule.edges:
        if rng.random() < 0.2:
            se = ScheduledEdge(
                se.animation,
                tuple(sorted(max(0.0, ts + rng.uniform(-300.0, 300.0)) for ts in se.starts)),
            )
        edges.append(se)
    makespan = max(ts + se.animation.total for se in edges for ts in se.starts)
    shifted = replace(schedule, edges=tuple(edges), makespan=makespan)
    return layout, cfg, schedule, shifted


class TestEasingBlocks:
    """Where the validator cuts its easing batches cannot change a report."""

    def test_block_size_does_not_change_reports(self, bench_scale, monkeypatch):
        layout, cfg, schedule, shifted = bench_scale
        for variant in (schedule, shifted):
            default = validate_schedule(layout, cfg, variant)
            for block in (1, 10**9):
                monkeypatch.setattr(scheduling, "EASING_BLOCK", block)
                assert validate_schedule(layout, cfg, variant) == default
            monkeypatch.undo()
        assert validate_schedule(layout, cfg, schedule).passed
        assert not validate_schedule(layout, cfg, shifted).passed

    def test_memory_stays_bounded(self, bench_scale):
        # About 8.1 MiB; float spans took 47.4 MiB, and one easing batch over
        # the whole schedule peaks near 260 MiB.
        layout, cfg, schedule, _ = bench_scale
        assert traced_peak(validate_schedule, layout, cfg, schedule) <= 16 * 2**20

    def test_memory_stays_bounded_over_a_long_horizon(self):
        # About 16.6 MiB; 20.4 MiB while every dilated span lived to the end,
        # and float spans took 155.6 MiB.
        layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
        cfg = replace(FASTLIN, horizon=60_000.0)
        schedule = compute_schedule(layout, cfg)
        assert traced_peak(validate_schedule, layout, cfg, schedule) <= 20 * 2**20


def traced_peak(func, *args):
    """Peak bytes that tracemalloc sees while func(*args) runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scipy_window_max(values, lag):
    return maximum_filter1d(values, 2 * lag + 1, mode="constant", cval=0)


class TestWindowMax:
    """The validator's numpy window maximum is scipy's maximum_filter1d."""

    def test_short_series(self):
        rng = np.random.default_rng(17)
        pad = SLOWLIN.delta0
        for n in range(301):
            eased = rng.uniform(pad, 0.5, n)
            cases = (
                np.full(n, pad),
                np.where(rng.random(n) < 0.9, pad, eased),
                np.where(rng.random(n) < 0.9, 0.5, eased),
                np.repeat(rng.choice([pad, 0.5], 1 + n // 8), 8)[:n],
            )
            # Level series, as the validator dilates them: at rest, level 0.
            levels = []
            for dtype, top in ((np.uint8, 255), (np.uint16, 300)):
                moved = rng.integers(0, top + 1, n)
                levels.append(np.where(rng.random(n) < 0.8, 0, moved).astype(dtype))
            for lag in {0, 1, 2, 3, 5, 8, 31, max(n - 1, 0), n, n + 1, 2 * n + 3}:
                for values in cases:
                    got = _window_max(values, lag)
                    assert np.array_equal(got, scipy_window_max(values, lag)), (n, lag)
                for values in levels:
                    got = _window_max(values, lag)
                    assert got.dtype == values.dtype
                    assert np.array_equal(got, scipy_window_max(values, lag)), (n, lag)

    def test_every_series_the_validator_dilates(self, bench_scale, monkeypatch):
        layout, cfg, schedule, shifted = bench_scale
        lags = set()

        def compared(values, lag):
            got = _window_max(values, lag)
            assert np.array_equal(got, scipy_window_max(values, lag))
            lags.add(lag)
            return got

        monkeypatch.setattr(scheduling, "_window_max", compared)
        for variant in (schedule, shifted):
            for tau_distinct in (72.0, 50.0, 25.0):
                other = replace(cfg, tau_distinct=tau_distinct)
                validate_schedule(layout, other, replace(variant, config=other))
        assert lags == {71, 49, 24}


def x_layout():
    """a-b and c-d cross at both midpoints, 200 px apart on each axis."""
    return GraphLayout(
        (
            NodeSpec("a", 0.0, 0.0),
            NodeSpec("b", 200.0, 200.0),
            NodeSpec("c", 0.0, 200.0),
            NodeSpec("d", 200.0, 0.0),
        ),
        (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
    )


class TestZeroDistinctness:
    """At tau_distinct = 0, coverages of a crossing may touch but not overlap."""

    @pytest.mark.parametrize("tau_distinct", [0.0, 0.5, 50.0])
    def test_simultaneous_crossing_fails(self, tau_distinct):
        layout = x_layout()
        cfg = replace(SLOWLIN, tau_distinct=tau_distinct)
        anims = [edge_animation(edge, layout, cfg) for edge in layout.edges]
        schedule = Schedule(
            config=cfg,
            edges=tuple(ScheduledEdge(anim, (0.0,)) for anim in anims),
            makespan=max(anim.total for anim in anims),
        )
        report = validate_schedule(layout, cfg, schedule)
        assert report.violation_counts == (("crossing-separation", 1),)

    @pytest.mark.parametrize("horizon_factor", [None, 2.0])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_computed_schedules_pass(self, cross_layout, preset, horizon_factor):
        # On the cross layout the second edge starts covering the shared
        # midpoint at the very sample where the first one stops.
        layouts = (
            cross_layout,
            synth_layout(11, n_nodes=16, density=3.0, spacing=200, bias=1.5),
            parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes()),
        )
        for layout in layouts:
            cfg = replace(PRESETS[preset], tau_distinct=0.0)
            if horizon_factor is not None:
                single = compute_schedule(layout, cfg).makespan
                cfg = replace(cfg, horizon=horizon_factor * single)
            schedule = compute_schedule(layout, cfg)
            report = validate_schedule(layout, cfg, schedule)
            assert report.passed, report.violation_counts


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_schedules_match_their_layout_after_a_round_trip(preset):
    layout = synth_layout(53, n_nodes=12, density=2.5, spacing=200, bias=1.5)
    schedule = compute_schedule(layout, PRESETS[preset])
    assert schedule_mismatches(layout, schedule) == []
    assert schedule_mismatches(layout, parse_schedule(schedule_to_json(schedule))) == []
    other = synth_layout(54, n_nodes=12, density=2.5, spacing=200, bias=1.5)
    assert schedule_mismatches(other, schedule)


class TestStats:
    def test_conflict_free_slowdown_closed_form(self):
        layout = no_conflict_layout()
        slow = compute_schedule(layout, SLOWLIN)
        fast = compute_schedule(layout, FASTLIN)
        tau_slow = max(se.animation.tau for se in slow.edges)
        tau_fast = max(se.animation.tau for se in fast.edges)
        expected = (2 * tau_slow + 100.0) / (2 * tau_fast + 100.0) - 1.0
        assert slowdown(slow, fast) == pytest.approx(expected, abs=1e-12)

    def test_different_layouts_rejected(self, cross_layout):
        other = GraphLayout(
            (NodeSpec("x", 0, 0), NodeSpec("y", 10, 0)), (EdgeSpec("x", "y"),)
        )
        with pytest.raises(UsageError):
            slowdown(
                compute_schedule(cross_layout, SLOWLIN),
                compute_schedule(other, SLOWLIN),
            )


@pytest.fixture(scope="module")
def sample_schedule_doc():
    layout = parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
    return schedule_to_dict(compute_schedule(layout, SLOWLIN))


class TestSerialization:
    def test_round_trip_equality(self, cross_layout):
        schedule = compute_schedule(cross_layout, PRESETS["sloweas"])
        text = schedule_to_json(schedule)
        back = parse_schedule(text)
        assert back == schedule
        assert schedule_to_json(back) == text

    def test_times_have_three_decimals(self, cross_layout):
        doc = schedule_to_dict(compute_schedule(cross_layout, SLOWLIN))
        for entry in doc["edges"]:
            for value in [entry["tau_ms"], entry["total_ms"], *entry["starts_ms"]]:
                assert value == round(value, 3)

    def test_json_is_deterministic(self, cross_layout):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        assert schedule_to_json(schedule) == schedule_to_json(
            compute_schedule(cross_layout, SLOWLIN)
        )

    @pytest.mark.parametrize(
        "edit",
        [
            {"append_start": float("nan")},
            {"append_start": float("inf")},
            {"append_start": float("-inf")},
            {"tau_ms": float("nan")},
            {"tau_ms": float("inf")},
            {"tau_ms": 1e308},
            {"tau_ms": 1e307, "append_start": 1.7e308},
        ],
    )
    def test_non_finite_times_rejected(self, sample_schedule_doc, edit):
        doc = json.loads(json.dumps(sample_schedule_doc))
        entry = doc["edges"][0]
        if "tau_ms" in edit:
            entry["tau_ms"] = edit["tau_ms"]
        if "append_start" in edit:
            entry["starts_ms"].append(edit["append_start"])
        with pytest.raises(ParseError):
            parse_schedule(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda doc: doc["edges"][0].update(tau_ms="312.5"), ParseError),
            (lambda doc: doc["edges"][0].update(tau_ms=True), ParseError),
            (lambda doc: doc["edges"][0]["starts_ms"].append(True), ParseError),
            (lambda doc: doc["edges"][0]["starts_ms"].append("9000"), ParseError),
            (lambda doc: doc["edges"][0]["starts_ms"].append(10**400), ParseError),
            (lambda doc: doc["config"].update(delta0="0.25"), ConfigError),
            (lambda doc: doc["config"].update(fps=True), ConfigError),
        ],
        ids=[
            "tau-string",
            "tau-bool",
            "start-bool",
            "start-string",
            "start-huge",
            "delta0-string",
            "fps-bool",
        ],
    )
    def test_times_must_be_json_numbers(self, sample_schedule_doc, edit, error):
        doc = json.loads(json.dumps(sample_schedule_doc))
        edit(doc)
        with pytest.raises(error, match="JSON number|does not fit"):
            parse_schedule(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [("source", None), ("source", 1), ("source", ["x"]), ("target", 1)],
        ids=["source-null", "source-number", "source-array", "target-number"],
    )
    def test_endpoints_must_be_node_id_strings(self, sample_schedule_doc, field, value):
        doc = json.loads(json.dumps(sample_schedule_doc))
        doc["edges"][0][field] = value
        with pytest.raises(ParseError, match="node id strings"):
            parse_schedule(json.dumps(doc))

    def test_unsorted_starts_rejected(self, cross_layout):
        doc = schedule_to_dict(
            compute_schedule(cross_layout, replace(SLOWLIN, horizon=9000.0))
        )
        entry = doc["edges"][0]
        assert len(entry["starts_ms"]) >= 2
        entry["starts_ms"].append(entry["starts_ms"][-1])  # a repeat is not a reversal
        assert parse_schedule(json.dumps(doc)).edges[0].starts == tuple(entry["starts_ms"])
        entry["starts_ms"].reverse()
        with pytest.raises(ParseError, match="not sorted"):
            parse_schedule(json.dumps(doc))

    def test_config_snapshot_preserved(self, cross_layout):
        cfg = replace(PRESETS["fasteas"], horizon=4000.0)
        schedule = compute_schedule(cross_layout, cfg)
        back = parse_schedule(schedule_to_json(schedule))
        assert back.config == cfg


@pytest.mark.parametrize("over, fails", [(0.0, False), (1e-7, False), (1e-5, True), (50.0, True)])
def test_starts_ending_past_the_horizon_fail(over, fails):
    """The validator bounds every animation's end by the horizon, with the
    slack that placement uses."""
    layout = no_conflict_layout()
    cfg = replace(SLOWLIN, horizon=20_000.0)
    schedule = compute_schedule(layout, cfg)
    assert validate_schedule(layout, cfg, schedule).passed
    last = schedule.edges[0]
    # Move the last start later, so that it stays apart from the one before.
    starts = (*last.starts[:-1], cfg.horizon + over - last.animation.total)
    edges = (ScheduledEdge(last.animation, starts), *schedule.edges[1:])
    late = replace(schedule, edges=edges, makespan=max(schedule.makespan, cfg.horizon + over))
    report = validate_schedule(layout, cfg, late)
    assert report == dense_validate_schedule(layout, cfg, late)
    assert report.violation_counts == ((("horizon", 1),) if fails else ())
    if fails:
        (violation,) = report.violations
        assert (violation.time_ms, violation.edges) == (starts[-1], (last.animation.edge.key,))
    # Without a horizon the same starts pass.
    assert validate_schedule(layout, SLOWLIN, replace(late, config=SLOWLIN)).passed


class TestValidatorGrid:
    def test_huge_start_is_range_error(self, cross_layout):
        doc = schedule_to_dict(compute_schedule(cross_layout, SLOWLIN))
        doc["edges"][0]["starts_ms"].append(1e300)
        schedule = parse_schedule(json.dumps(doc))
        with pytest.raises(RangeError, match="samples"):
            validate_schedule(cross_layout, SLOWLIN, schedule)

    def test_cap_boundary(self, cross_layout, monkeypatch):
        schedule = compute_schedule(cross_layout, SLOWLIN)
        count = validate_schedule(cross_layout, SLOWLIN, schedule).sample_count
        monkeypatch.setattr(scheduling, "MAX_SAMPLES", count)
        assert validate_schedule(cross_layout, SLOWLIN, schedule).sample_count == count
        monkeypatch.setattr(scheduling, "MAX_SAMPLES", count - 1)
        with pytest.raises(RangeError):
            validate_schedule(cross_layout, SLOWLIN, schedule)

    def test_three_minute_horizon_fits(self, cross_layout):
        cfg = replace(SLOWLIN, horizon=180_000.0)
        schedule = compute_schedule(cross_layout, cfg)
        report = validate_schedule(cross_layout, cfg, schedule)
        assert report.passed
        assert 170_000 < report.sample_count <= scheduling.MAX_SAMPLES


class TestOwnConfig:
    """The validator checks a schedule under its own config and no other."""

    @pytest.fixture(scope="class")
    def sample(self):
        return parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())

    def test_forged_config_is_refused_and_fails_under_its_own(self, sample):
        # Placed with 10 ms distinctness, but stored with the preset's 50 ms.
        cfg = PRESETS["sloweas"]
        placed_with = replace(cfg, tau_distinct=10.0)
        forged = replace(compute_schedule(sample, placed_with), config=cfg)
        with pytest.raises(UsageError, match=r"^cfg must be the schedule's own config"):
            validate_schedule(sample, placed_with, forged)
        report = validate_schedule(sample, forged.config, forged)
        assert report.violation_counts == (("crossing-separation", 126),)

    def test_another_preset_is_refused(self, sample):
        schedule = compute_schedule(sample, PRESETS["slowlin"])
        with pytest.raises(UsageError):
            validate_schedule(sample, PRESETS["sloweas"], schedule)
        assert validate_schedule(sample, schedule.config, schedule).passed
