"""Tests of the benchmark's own code; run with ``python3 -m pytest bench``."""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jobs  # noqa: E402
import layouts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_generator_bytes_repeat_for_a_seed(name):
    workload = jobs.WORKLOADS[name]
    first = layouts.layout_bytes(workload, 7, jobs.layout_accepted)
    assert layouts.layout_bytes(workload, 7, jobs.layout_accepted) == first
    assert layouts.layout_bytes(workload, 8, jobs.layout_accepted) != first


def test_held_out_seed_uses_another_base_graph():
    workload = jobs.WORKLOADS["render_n40"]

    def edge_lengths(seed):
        doc = json.loads(layouts.layout_bytes(workload, seed, jobs.layout_accepted))
        at = {node["id"]: (node["x"], node["y"]) for node in doc["nodes"]}
        return np.sort([math.dist(at[e["source"]], at[e["target"]]) for e in doc["edges"]])

    # Other seeds are congruent variants: lengths move by the 0.5 px jitter only.
    assert np.allclose(edge_lengths(1), edge_lengths(2), atol=1.5)
    assert not np.allclose(edge_lengths(1), edge_lengths(layouts.HELD_OUT_SEED), atol=1.5)


def test_generator_reseeds_rejected_variants():
    workload = jobs.WORKLOADS["render_n40"]
    seen = []

    def reject_first(raw):
        seen.append(raw)
        return len(seen) > 1

    raw = layouts.layout_bytes(workload, 3, reject_first)
    assert raw == seen[1] != seen[0]


def test_self_time_on_a_hand_built_tree():
    # job [0, 10]: a [1, 6] with children b [2, 3] and c [4, 5.5]; d [7, 9].
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.5, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.5, 1.0, 1.5, 2.0]


def test_per_job_totals_sum_self_time_per_job():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    for _ in range(2):
        tracer.begin_job("k")
        outer = tracer.open_span("outer")  # t0
        inner = tracer.open_span("inner")  # t1
        tracer.close_span(inner, size=4)  # t2
        inner = tracer.open_span("inner")  # t3
        tracer.close_span(inner, size=6)  # t4
        tracer.close_span(outer)  # t5
        tracer.end_job()
    totals = spans.per_job_totals(tracer)
    assert totals["outer"] == {"k": {"calls": [1.0, 1.0], "ms": [3000.0, 3000.0], "size": [0.0, 0.0]}}
    assert totals["inner"] == {"k": {"calls": [2.0, 2.0], "ms": [2000.0, 2000.0], "size": [10.0, 10.0]}}


def test_span_in_two_job_kinds_is_reported_per_kind():
    # export_animation has 1 tick of self time in each render_frames job and
    # 5 in each render_animated job; a median over all five jobs would be 1.
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    for kind in ("render_frames", "render_animated") * 2 + ("render_frames",):
        tracer.begin_job(kind)
        export = tracer.open_span("render.export")
        if kind == "render_animated":
            for _ in range(4):
                next(ticks)
        tracer.close_span(export)
        tracer.end_job()
    totals = spans.per_job_totals(tracer)
    assert totals["render.export"]["render_frames"]["ms"] == [1000.0] * 3
    assert totals["render.export"]["render_animated"]["ms"] == [5000.0] * 2
    no_layout = types.SimpleNamespace(edges=[], adjacency={})
    metrics = run.layer_metrics(totals, types.SimpleNamespace(facts={}), {}, {}, no_layout)
    assert metrics["render.export.frames.ms"]["value"] == 1000.0
    assert metrics["render.export.animated.ms"]["value"] == 5000.0


def test_wrapped_calls_record_only_inside_jobs():
    module = types.ModuleType("bench_fake_module")
    module.double = lambda values: [2 * v for v in values]
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        tracer.install([("fake.double", module.__name__, "double", True)])
        assert module.double([1]) == [2]
        tracer.begin_job("k")
        assert module.double([1, 2, 3]) == [2, 4, 6]
        tracer.end_job()
        tracer.uninstall()
        assert module.double([1]) == [2]
    finally:
        del sys.modules[module.__name__]
    totals = spans.per_job_totals(tracer)
    assert list(totals) == ["fake.double"]
    assert totals["fake.double"]["k"]["calls"] == [1.0]
    assert totals["fake.double"]["k"]["size"] == [3.0]


def test_missing_wrapped_attribute_reads_as_absent():
    tracer = spans.Tracer()
    tracer.install(
        [
            ("gone.attr", "edgemorph.render", "no_such_function", False),
            ("gone.module", "edgemorph.no_such_module", "anything", False),
        ]
    )
    assert tracer.absent == ["gone.attr", "gone.module"]
    assert spans.per_job_totals(tracer) == {}


def test_every_trace_target_exists_today():
    tracer = spans.Tracer()
    tracer.install(jobs.TRACE_TARGETS)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_expected_frame_count_uses_the_file_makespan():
    doc = (
        b'{"config": {"tau_half_ms": 100.0, "fps": 30.0}, "edges": ['
        b'{"tau_ms": 450.0, "starts_ms": [0.0, 2000.0]}]}'
    )
    # makespan 2000 + 2 * 450 + 100 = 3000 ms -> 90 frame steps plus frame 0
    assert jobs.expected_frame_count(doc) == 91


def test_benchmark_json_matches_what_run_reports():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in jobs.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {m: run.span_unit(stat) for m, _, stat, _ in run.SPAN_METRICS}
    layer_units.update(run.FACT_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_units
