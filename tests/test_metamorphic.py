"""Metamorphic guards: a layout's node and edge order and its place on the
canvas do not change what is scheduled or what the check reports.

Shuffling the node and edge lists of a layout, or translating it by an
exactly representable offset, must leave the schedule document
byte-identical and the validator report ``==``. These pin the ordering rules
(rows sorted by edge key, ties by key) that the segment-pair pass, the
scheduler and the validator follow whatever order they find the pairs in.
"""

import json
import random
from dataclasses import replace

import pytest

from edgemorph import (
    PRESETS,
    GraphLayout,
    compute_schedule,
    find_avoidable_crossings,
    parse_layout,
    parse_schedule,
    schedule_to_json,
    segment_intersection,
    validate_schedule,
)
from conftest import DATA_DIR
from gen_layouts import synth_layout

LAYOUTS = ("sample", 1, 2, 3, 4, 5)


def base_layout(name):
    if name == "sample":
        return parse_layout((DATA_DIR / "sample_dense_40.json").read_bytes())
    return synth_layout(name, n_nodes=40)


def shuffled(layout, seed):
    rng = random.Random(seed)
    nodes, edges = list(layout.nodes), list(layout.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return GraphLayout(tuple(nodes), tuple(edges))


def shifted(layout, dx=1024.0, dy=-2048.0):
    nodes = tuple(replace(node, x=node.x + dx, y=node.y + dy) for node in layout.nodes)
    return GraphLayout(nodes, layout.edges)


def started_together(text):
    """The schedule with every start at 0: crossing partners clash."""
    doc = json.loads(text)
    for entry in doc["edges"]:
        entry["starts_ms"] = [0.0 for _ in entry["starts_ms"]]
    return parse_schedule(json.dumps(doc))


def keys(crossings):
    return [(c.edge_a.key, c.edge_b.key) for c in crossings]


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", LAYOUTS)
def test_order_and_offset_leave_schedule_and_report_unchanged(name, preset):
    layout = base_layout(name)
    shuffles = [shuffled(layout, seed) for seed in (1, 2)]
    for horizon in (30_000.0, None):
        cfg = replace(PRESETS[preset], horizon=horizon)
        text = schedule_to_json(compute_schedule(layout, cfg))
        schedule = parse_schedule(text)
        report = validate_schedule(layout, cfg, schedule)
        assert report.passed
        for variant in (*shuffles, shifted(layout)):
            assert schedule_to_json(compute_schedule(variant, cfg)) == text
            assert validate_schedule(variant, cfg, schedule) == report
    # Under a shuffle, crossings come out equal, points included, and a
    # failing report lists the same violations in the same order. A shift
    # moves the points: shifted crossings are compared by edge keys only.
    crossings = find_avoidable_crossings(layout, cfg.delta0)
    clashing = started_together(text)
    failed = validate_schedule(layout, cfg, clashing)
    assert {v.kind for v in failed.violations} == {"crossing-separation"}
    for variant in shuffles:
        assert find_avoidable_crossings(variant, cfg.delta0) == crossings
        assert validate_schedule(variant, cfg, clashing) == failed
    assert keys(find_avoidable_crossings(shifted(layout), cfg.delta0)) == keys(crossings)


@pytest.mark.parametrize("name", LAYOUTS)
def test_crossing_points_are_found_along_the_smaller_key(name):
    # Each point is the one segment_intersection finds along the edge with
    # the smaller key, whichever of the two the layout lists first.
    layout = base_layout(name)
    for delta0 in (0.1, 0.25, 0.4):
        crossings = find_avoidable_crossings(layout, delta0)
        for c in crossings:
            hit = segment_intersection(layout.endpoints(c.edge_a), layout.endpoints(c.edge_b))
            assert hit == (c.point, c.ratio_a, c.ratio_b)
        for seed in (1, 2, 3):
            assert find_avoidable_crossings(shuffled(layout, seed), delta0) == crossings
