"""Mutated schedule documents are checked and rendered, or refused cleanly.

Numbers in a valid schedule file are replaced by negative, tiny, huge,
subnormal and non-round values. Each document then goes through parsing, the
validator and the animated export; every outcome must be a result or an
EdgemorphError, never another exception.
"""

import copy
import json
import tempfile
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgemorph import (
    PRESETS,
    EdgemorphError,
    compute_schedule,
    export_animation,
    parse_schedule,
    schedule_to_dict,
    validate_schedule,
)
from gen_layouts import two_segment_cross

LAYOUT = two_segment_cross()
BASE_DOC = schedule_to_dict(
    compute_schedule(LAYOUT, replace(PRESETS["fastlin"], horizon=7000.0))
)
CONFIG_KEYS = ("sigma_a_px_s", "delta0", "tau_half_ms", "tau_distinct_ms", "fps", "horizon_ms")

VALUES = st.one_of(
    st.sampled_from(
        [-1e6, -1.0, -0.0, 0.0, 5e-324, 2.2e-308, 1e-300, 1e-9, 0.1234567, 1e9, 1e300]
    ),
    st.floats(min_value=-1e4, max_value=1e4),
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASE_DOC)
    for _ in range(draw(st.integers(1, 3))):
        value = draw(VALUES)
        target = draw(st.sampled_from(["config", "tau", "start", "shift"]))
        if target == "config":
            doc["config"][draw(st.sampled_from(CONFIG_KEYS))] = value
        elif target == "tau":
            draw(st.sampled_from(doc["edges"]))["tau_ms"] = value
        elif target == "start":
            starts = draw(st.sampled_from(doc["edges"]))["starts_ms"]
            starts[draw(st.integers(0, len(starts) - 1))] = value
        else:
            for entry in doc["edges"]:
                entry["starts_ms"] = [ts + value for ts in entry["starts_ms"]]
    return doc


def shifted(offset):
    doc = copy.deepcopy(BASE_DOC)
    for entry in doc["edges"]:
        entry["starts_ms"] = [ts + offset for ts in entry["starts_ms"]]
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
@example(shifted(-1e6))  # every animation ends before time 0
@example(shifted(1e300))
def test_mutated_schedule_is_checked_and_rendered_or_refused(doc):
    try:
        schedule = parse_schedule(json.dumps(doc))
        validate_schedule(LAYOUT, schedule.config, schedule)
        with tempfile.TemporaryDirectory() as out:
            export_animation(
                LAYOUT, schedule.config, schedule, out, frames=False, animated=True
            )
    except EdgemorphError:
        pass
