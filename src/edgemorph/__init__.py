"""Morphing edge drawings for node-link diagrams.

Edges of an embedded graph are shown as symmetric partial stubs that
periodically morph out to the full segment and back, scheduled so that the
stubs of two crossing edges never meet at a crossing point that the resting
drawing avoids. The package covers layout ingestion, easing curves, stub
kinematics, crossing detection, greedy scheduling with an independent
sampling validator, task trials with scoring, and SVG output.
"""

from types import ModuleType as _ModuleType

from .crossings import AvoidableCrossing, find_avoidable_crossings, segment_intersection
from .easing import (
    EASE,
    LINEAR,
    EasingSpec,
    easing_to_string,
    evaluate,
    invert,
    parse_easing,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    EdgemorphError,
    ParseError,
    RangeError,
    UsageError,
    ValidationError,
)
from .graph import (
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    StubPair,
    edge_length,
    layout_to_dict,
    layout_to_json,
    parse_layout,
    stub_pair,
    validate_layout,
    with_color_roles,
)
from .kinematics import (
    PRESETS,
    AnimationConfig,
    EdgeAnimation,
    config_to_dict,
    edge_animation,
    occupancy_interval,
    parse_config,
)
from .render import export_animation, frame_timestamps
from .scheduling import (
    Schedule,
    ScheduledEdge,
    ScheduleReport,
    ScheduleViolation,
    compute_schedule,
    forbidden_start_window,
    parse_schedule,
    sample_ratio_series,
    schedule_from_dict,
    schedule_mismatches,
    schedule_to_dict,
    schedule_to_json,
    slowdown,
    validate_schedule,
)
from .tasks import (
    TASKS,
    TrialSpec,
    adjacency_query,
    apply_trial_roles,
    bounded_path_exists,
    common_neighbors,
    ground_truth_for,
    inter_region_edges,
    make_trial,
    neighborhood_size,
    score_answer,
    trial_from_dict,
    trial_to_dict,
    trial_to_json,
)

__version__ = "0.1.0"

# Importing the names above binds the submodules too; they are not public names.
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
