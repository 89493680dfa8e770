"""
Crossing-aware scheduling
=========================

Edges animate longest first, each starting as early as the shared crossing
points allow: two edges may cover the same point only 50 ms apart or more.
An independent validator re-checks any schedule by sampling every edge's stub
ratio millisecond by millisecond.
"""

from dataclasses import replace

from edgemorph import (
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    PRESETS,
    Schedule,
    ScheduledEdge,
    compute_schedule,
    validate_schedule,
)

# Two 400 px edges crossing at both midpoints.
layout = GraphLayout(
    (
        NodeSpec("a", 0.0, 0.0),
        NodeSpec("b", 400.0, 0.0),
        NodeSpec("c", 200.0, -200.0),
        NodeSpec("d", 200.0, 200.0),
    ),
    (EdgeSpec("a", "b"), EdgeSpec("c", "d")),
)

cfg = PRESETS["slowlin"]
schedule = compute_schedule(layout, cfg)
print(f"makespan {schedule.makespan:.0f} ms")
for se in schedule.edges:
    print(f"  edge {se.animation.edge.key}: one-way morph {se.animation.tau:.0f} ms, "
          f"starts at {[round(t) for t in se.starts]}")

report = validate_schedule(layout, cfg, schedule)
print(f"validator: passed={report.passed} over {report.sample_count} samples")

# Starting both edges together would make the stubs meet at the crossing.
bad = Schedule(
    config=cfg,
    edges=tuple(ScheduledEdge(se.animation, (0.0,)) for se in schedule.edges),
    makespan=2100.0,
)
bad_report = validate_schedule(layout, cfg, bad)
first = bad_report.violations[0]
print(f"both at zero: passed={bad_report.passed}, first violation "
      f"{first.kind} at {first.time_ms:.0f} ms")

# With a schedule horizon, each edge keeps animating for as long as it fits.
repeating = compute_schedule(layout, replace(cfg, horizon=8000.0))
for se in repeating.edges:
    print(f"  within 8 s, edge {se.animation.edge.key} animates "
          f"{len(se.starts)} times: {[round(t) for t in se.starts]}")
