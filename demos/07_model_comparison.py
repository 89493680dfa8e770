"""
Comparing the four stock models
===============================

The stock parameter sets cross two tip speeds (100 and 200 px/s) with two
easings (linear and ease). Halving the speed roughly doubles the schedule;
the ease curve keeps crossing points occupied longer, which stretches
schedules further. The bundled dense sample shows both effects.
"""

from pathlib import Path

from edgemorph import PRESETS, compute_schedule, parse_layout, slowdown

sample = parse_layout(
    (Path(__file__).resolve().parent.parent / "data" / "sample_dense_40.json").read_bytes()
)
print(f"layout: {len(sample.nodes)} nodes, {len(sample.edges)} edges")

schedules = {name: compute_schedule(sample, cfg) for name, cfg in PRESETS.items()}
print(f"{'model':10}{'makespan':>12}")
for name, schedule in sorted(schedules.items(), key=lambda kv: -kv[1].makespan):
    print(f"{name:10}{schedule.makespan / 1000.0:>10.2f} s")

speed = slowdown(schedules["slowlin"], schedules["fastlin"])
print(f"\nslow vs fast (linear): {speed:+.0%}")
for speed_name in ("slow", "fast"):
    eased = schedules[f"{speed_name}eas"]
    linear = schedules[f"{speed_name}lin"]
    print(f"ease vs linear ({speed_name}): {slowdown(eased, linear):+.0%}")
