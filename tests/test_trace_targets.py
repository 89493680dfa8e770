"""Every span the benchmark traces names a program attribute that exists.

The benchmark harness times a stage by patching ``module.attribute`` by name
(``TRACE_TARGETS`` in ``bench/jobs.py``); a rename in ``src/`` leaves the span
reading zero without an error. This test resolves each target with
``getattr``, without installing the tracer, so such a rename fails here.
"""

import importlib

from conftest import DATA_DIR

BENCH = DATA_DIR.parent / "bench"

#: Targets whose attributes were already gone when this guard was added; they
#: wait on a repair of the harness itself.
ALREADY_ABSENT = {
    "graph.stub_pair",
    "crossings.scan",
    "easing.evaluate",
    "easing.verify_monotone",
    "kinematics.stub_ratio_at",
    "render.sample_frame",
    "render.frame_to_svg",
}


def test_no_further_trace_target_goes_dark(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from jobs import TRACE_TARGETS

    unresolved = {
        name
        for name, module, attribute, _ in TRACE_TARGETS
        if getattr(importlib.import_module(module), attribute, None) is None
    }
    assert sorted(unresolved - ALREADY_ABSENT) == []
