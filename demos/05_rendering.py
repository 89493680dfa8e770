"""
Rendering frames and animated documents
=======================================

Any schedule can be sampled at an arbitrary time into a frame (nodes as
disks, edges as stubs) and written as SVG, either frame by frame at the
configured rate or as a single self-contained animated document.

Outputs land in demos/out/.
"""

from pathlib import Path

from edgemorph import (
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    PRESETS,
    compute_schedule,
    export_animation,
)
from edgemorph.render import frame_texts

out_dir = Path(__file__).resolve().parent / "out" / "rendering"

layout = GraphLayout(
    (
        NodeSpec("a", 0.0, 0.0, "blue"),
        NodeSpec("b", 400.0, 0.0, "blue"),
        NodeSpec("c", 200.0, -200.0, "orange"),
        NodeSpec("d", 200.0, 200.0),
    ),
    (EdgeSpec("a", "b"), EdgeSpec("c", "d"), EdgeSpec("a", "d")),
)
cfg = PRESETS["sloweas"]
schedule = compute_schedule(layout, cfg)

# A single mid-animation frame as text.
t = schedule.makespan / 2.0
(svg,) = frame_texts(layout, schedule, [t])
print(f"frame at {t:.0f} ms: {svg.count('<line')} line elements, "
      f"{svg.count('<circle')} node disks")

# The full frame sequence plus the animated document.
written = export_animation(layout, cfg, schedule, out_dir, frames=True, animated=True)
print(f"wrote {len(written) - 1} frames and {written[-1].name} to {out_dir}")
print("open the animation in any browser:")
print(f"  {written[-1]}")

# Region-count trials highlight whole node groups with a translucent tint.
(tinted,) = frame_texts(layout, schedule, [t], regions=(("a", "c"), ("b", "d")))
tinted_path = out_dir / "regions.svg"
tinted_path.write_text(tinted, encoding="utf-8")
print(f"region-tinted frame: {tinted_path}")
