"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported comparison numbers.
"""

import random
import time

import numpy as np
import pytest

import edgemorph as em
from edgemorph.easing import CUBIC_KIND, evaluate_many, invert_many
from edgemorph.kinematics import stub_ratio_matrix
from edgemorph.render import frame_texts
from edgemorph.scheduling import sample_ratio_series
from gen_layouts import k4_square, paper_scale_layout, valid_synth_layout
from test_crossings import brute_force_crossings

PRESET_NAMES = ("slowlin", "sloweas", "fastlin", "fasteas")

SOUNDNESS_SEED_BASE = 52_000
PAPER_SUITE_SEED_BASE = 9_100
#: A cubic parameterization of the identity, for criterion 3.
IDENTITY_BEZIER = em.EasingSpec(CUBIC_KIND, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def soundness_suite():
    """100 seeded layouts, 10..60 nodes, density 2..5.5, with all 4 schedules."""
    suite = []
    for i in range(100):
        seed = SOUNDNESS_SEED_BASE + i
        rng = random.Random(seed)
        n = rng.randint(10, 60)
        density = rng.uniform(2.0, min(5.5, (n - 1) / 2.0))
        layout = valid_synth_layout(seed, n_nodes=n, density=density)
        schedules = {
            name: em.compute_schedule(layout, em.PRESETS[name])
            for name in PRESET_NAMES
        }
        suite.append((layout, schedules))
    return suite


@pytest.fixture(scope="module")
def paper_suite():
    """20 paper-scale layouts (40..58 nodes) with makespans per preset."""
    suite = []
    for i in range(20):
        layout = paper_scale_layout(PAPER_SUITE_SEED_BASE + i)
        makespans = {
            name: em.compute_schedule(layout, em.PRESETS[name]).makespan
            for name in PRESET_NAMES
        }
        suite.append((layout, makespans))
    return suite


def test_criterion_1_schedule_soundness(soundness_suite):
    started = time.time()
    failures = []
    for index, (layout, schedules) in enumerate(soundness_suite):
        for name, schedule in schedules.items():
            result = em.validate_schedule(layout, em.PRESETS[name], schedule)
            if not result.passed:
                failures.append((index, name, result.violations[:2]))
    elapsed = time.time() - started
    report(
        1,
        "validator passes every computed schedule",
        not failures,
        f"100 layouts x 4 presets, 1 ms sampling, {elapsed:.1f}s"
        + (f"; first failures {failures[:2]}" if failures else ""),
    )


def test_criterion_2_initial_frame(soundness_suite):
    bad = []
    for index, (layout, schedules) in enumerate(soundness_suite):
        for name, schedule in schedules.items():
            by_key = schedule.starts_by_key()
            entries = [
                (by_key[e.key].animation, by_key[e.key].starts) if e.key in by_key else None
                for e in layout.edges
            ]
            if np.any(stub_ratio_matrix(em.PRESETS[name], entries, [0.0]) != 0.25):
                bad.append((index, name))
    report(
        2,
        "frame at t=0 rests at ratio 1/4 exactly",
        not bad,
        "every schedule" + (f"; offenders {bad[:3]}" if bad else ""),
    )


def test_criterion_3_easing_numerics():
    problems = []
    for name, spec in (("linear", em.LINEAR), ("ease", em.EASE)):
        if em.evaluate(spec, 0.0) != 0.0 or em.evaluate(spec, 1.0) != 1.0:
            problems.append(f"{name} endpoints inexact")
        grid = np.linspace(0.0, 1.0, 10_000)
        round_trip = invert_many(spec, evaluate_many(spec, grid))
        worst = float(np.max(np.abs(round_trip - grid)))
        if worst > 1e-6:
            problems.append(f"{name} round-trip off by {worst:.2e}")
    grid = np.linspace(0.0, 1.0, 10_000)
    identity_gap = float(np.max(np.abs(evaluate_many(IDENTITY_BEZIER, grid) - grid)))
    if identity_gap > 1e-6:
        problems.append(f"identity-bezier deviates {identity_gap:.2e}")
    report(3, "easing numerics and round-trips", not problems, "; ".join(problems))


def test_criterion_4_speed_ratio(paper_suite):
    slowdowns = [
        makespans["slowlin"] / makespans["fastlin"] - 1.0
        for _, makespans in paper_suite
    ]
    mean = sum(slowdowns) / len(slowdowns)
    per_layout_ok = all(0.5 <= s <= 1.0 for s in slowdowns)
    mean_ok = 0.6 <= mean <= 1.0
    report(
        4,
        "slow vs fast makespan ratio",
        per_layout_ok and mean_ok,
        f"per-layout range [{min(slowdowns):.3f}, {max(slowdowns):.3f}], "
        f"mean {mean:.3f} (reported slow/fast slowdowns: 0.74 linear, 0.87 ease)",
    )


def test_criterion_5_easing_slowdown_direction(paper_suite):
    pairs = []
    for _, makespans in paper_suite:
        pairs.append((makespans["sloweas"], makespans["slowlin"], "slow"))
        pairs.append((makespans["fasteas"], makespans["fastlin"], "fast"))
    ordered = sum(1 for eased, linear, _ in pairs if eased >= linear)
    slowdowns = [eased / linear - 1.0 for eased, linear, _ in pairs]
    mean = sum(slowdowns) / len(slowdowns)
    slow_mean = sum(s for s, (_, _, kind) in zip(slowdowns, pairs) if kind == "slow") / 20
    fast_mean = sum(s for s, (_, _, kind) in zip(slowdowns, pairs) if kind == "fast") / 20
    fraction_ok = ordered / len(pairs) >= 0.9
    mean_ok = 0.0 <= mean <= 0.4
    report(
        5,
        "easing never speeds things up (within tolerance)",
        fraction_ok and mean_ok,
        f"{ordered}/{len(pairs)} ordered, mean slowdown {mean:.3f} "
        f"(slow {slow_mean:.3f} vs reported 0.20, fast {fast_mean:.3f} vs reported 0.11)",
    )


def test_criterion_6_geometry_oracle():
    rng = random.Random(777)
    checked = 0
    mismatches = []
    while checked < 200:
        seed = rng.randrange(10**6)
        n = rng.randint(4, 10)
        density = min(15.0 / n, rng.uniform(1.0, 2.5))
        layout = valid_synth_layout(seed, n_nodes=n, density=density)
        if len(layout.edges) > 15:
            continue
        checked += 1
        expected = brute_force_crossings(layout, 0.25)
        found = em.find_avoidable_crossings(layout, 0.25)
        if len(found) != len(expected):
            mismatches.append(seed)
            continue
        for got, want in zip(found, expected):
            if (
                got.edge_a.key != want[0]
                or got.edge_b.key != want[1]
                or abs(got.ratio_a - want[3]) > 1e-9
                or abs(got.ratio_b - want[4]) > 1e-9
            ):
                mismatches.append(seed)
                break
    k4 = em.find_avoidable_crossings(k4_square(), 0.25)
    k4_ok = (
        len(k4) == 1
        and abs(k4[0].ratio_a - 0.5) < 1e-12
        and abs(k4[0].ratio_b - 0.5) < 1e-12
    )
    report(
        6,
        "crossing detection equals exhaustive checker",
        not mismatches and k4_ok,
        f"200 layouts compared; K4 gives one crossing at (0.5, 0.5)"
        + (f"; mismatched seeds {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_7_kinematics_oracle():
    rng = random.Random(31415)
    worst = 0.0
    failures = 0
    for _ in range(1000):
        length = rng.uniform(60.0, 500.0)
        point_ratio = rng.uniform(0.2501, 0.7499)
        for cfg in (em.PRESETS["slowlin"], em.PRESETS["sloweas"]):
            layout = em.GraphLayout(
                (em.NodeSpec("a", 0.0, 0.0), em.NodeSpec("b", length, 0.0)),
                (em.EdgeSpec("a", "b"),),
            )
            anim = em.edge_animation(("a", "b"), layout, cfg)
            lo, hi = em.occupancy_interval(anim, cfg, point_ratio, 0.0)
            nearer = min(point_ratio, 1.0 - point_ratio)
            times = np.arange(-1.0, anim.total + 1.0, 0.1)
            covered = sample_ratio_series(anim, (0.0,), cfg, times) >= nearer - 1e-12
            first = float(times[int(np.argmax(covered))])
            last = float(times[len(covered) - 1 - int(np.argmax(covered[::-1]))])
            gap = max(abs(first - lo), abs(last - hi))
            worst = max(worst, gap)
            if gap > 1.0:
                failures += 1
    report(
        7,
        "occupancy intervals match 0.1 ms sampling within 1 ms",
        failures == 0,
        f"1000 pairs x 2 easings, worst gap {worst:.3f} ms",
    )


def _oracle_distances(ids, edge_set):
    """Floyd-Warshall hop distances, independent of the library's BFS."""
    inf = float("inf")
    dist = {a: {b: (0 if a == b else inf) for b in ids} for a in ids}
    for a, b in edge_set:
        dist[a][b] = 1
        dist[b][a] = 1
    for mid in ids:
        for a in ids:
            through = dist[a][mid]
            if through == inf:
                continue
            row_mid = dist[mid]
            row_a = dist[a]
            for b in ids:
                candidate = through + row_mid[b]
                if candidate < row_a[b]:
                    row_a[b] = candidate
    return dist


def test_criterion_8_task_ground_truth():
    rng = random.Random(2718)
    mismatches = []
    for trial in range(100):
        seed = rng.randrange(10**6)
        layout = valid_synth_layout(
            seed, n_nodes=rng.randint(4, 30), density=rng.uniform(1.0, 2.5)
        )
        ids = sorted(node.id for node in layout.nodes)
        edge_set = {edge.key for edge in layout.edges}
        dist = _oracle_distances(ids, edge_set)

        def neighbors(x):
            return {
                b if a == x else a for a, b in edge_set if x in (a, b)
            }

        for _ in range(10):
            a, b = rng.sample(ids, 2)
            if em.adjacency_query(layout, a, b) != (tuple(sorted((a, b))) in edge_set):
                mismatches.append((seed, "T1"))
            orange = rng.choice(ids)
            blues = rng.sample([i for i in ids if i != orange], min(4, len(ids) - 1))
            if em.neighborhood_size(layout, orange, blues) != len(
                set(blues) & neighbors(orange)
            ):
                mismatches.append((seed, "T2"))
            k = rng.randint(1, 5)
            if em.bounded_path_exists(layout, a, b, k) != (dist[a][b] <= k):
                mismatches.append((seed, "T3"))
            if em.common_neighbors(layout, a, b) != len(
                (neighbors(a) & neighbors(b)) - {a, b}
            ):
                mismatches.append((seed, "T4"))
            region_a = set(rng.sample(ids, 2))
            region_b = set(rng.sample([i for i in ids if i not in region_a], 2))
            boundary = sum(
                1
                for x, y in edge_set
                if (x in region_a and y in region_b) or (x in region_b and y in region_a)
            )
            if em.inter_region_edges(layout, region_a, region_b) != boundary:
                mismatches.append((seed, "T5"))
    score_ok = (
        em.score_answer("T2", 5, 5) == 0.0
        and em.score_answer("T2", 4, 5) == 0.5
        and em.score_answer("T1", True, False) == 1.0
    )
    report(
        8,
        "task queries agree with independent oracles",
        not mismatches and score_ok,
        "100 graphs x 5 tasks x 10 probes; scoring formula spot-checked"
        + (f"; first mismatches {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_9_determinism_and_round_trips(tmp_path, data_dir):
    problems = []
    bundled = em.parse_layout((data_dir / "sample_dense_40.json").read_bytes())
    small = valid_synth_layout(60_606, n_nodes=12, density=2.0)
    for layout, preset in ((bundled, "sloweas"), (small, "fastlin")):
        cfg = em.PRESETS[preset]
        first = em.compute_schedule(layout, cfg)
        second = em.compute_schedule(layout, cfg)
        if em.schedule_to_json(first) != em.schedule_to_json(second):
            problems.append(f"{preset} schedule bytes differ between runs")
        reread = em.parse_schedule(em.schedule_to_json(first))
        if reread != first:
            problems.append(f"{preset} schedule round-trip not exact")
        for t in (0.0, 499.0, first.makespan / 2.0, first.makespan):
            (direct,) = frame_texts(layout, cfg, first, [t])
            (again,) = frame_texts(layout, cfg, first, [t])
            (via_file,) = frame_texts(layout, reread.config, reread, [t])
            if direct != again:
                problems.append(f"{preset} frame at {t} not reproducible")
            if direct != via_file:
                problems.append(f"{preset} frame at {t} differs after file round-trip")
    schedule = em.compute_schedule(small, em.PRESETS["fastlin"])
    first_run = em.export_animation(
        small, schedule.config, schedule, tmp_path / "run1"
    )
    second_run = em.export_animation(
        small, schedule.config, schedule, tmp_path / "run2"
    )
    for a, b in zip(first_run, second_run):
        if a.read_bytes() != b.read_bytes():
            problems.append(f"exported frame {a.name} differs between runs")
            break
    report(
        9,
        "byte-identical schedules and frames; lossless file round-trips",
        not problems,
        "; ".join(problems) if problems else "bundled + synthetic fixtures",
    )
