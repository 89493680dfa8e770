"""Command-line interface.

Subcommands: validate, crossings, schedule, check, render, trial, stats. Exit code 0
on success, 1 on domain or validation failures, 2 on usage errors; all
diagnostics go to stderr. Animation parameters resolve in layers: built-in
defaults, then a config file, then a named model preset, then individual
flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .easing import parse_easing
from .errors import EdgemorphError, UsageError
from .graph import layout_to_json, parse_layout
from .kinematics import PRESETS, AnimationConfig, parse_config
from .render import export_animation, frame_texts
from .scheduling import (
    compute_schedule,
    parse_schedule,
    schedule_mismatches,
    schedule_to_json,
    slowdown,
    validate_schedule,
)
from .tasks import TASKS, apply_trial_roles, make_trial, trial_to_json


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _layout(path: str):
    return parse_layout(_read(path))


def _base_config(config_path: str | None, model: str | None) -> AnimationConfig:
    """Built-in defaults, then a config file, then a preset's animation fields."""
    cfg = parse_config(_read(config_path)) if config_path else AnimationConfig(sigma_a=100.0)
    if model:
        cfg = replace(PRESETS[model], fps=cfg.fps, horizon=cfg.horizon)
    return cfg


def _resolve_config(args) -> AnimationConfig:
    """The base configuration with every given flag applied on top, in one step."""
    cfg = _base_config(args.config, args.model)
    fields = ("sigma_a", "delta0", "tau_half", "tau_distinct", "fps", "horizon")
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    if args.easing is not None:
        overrides["easing"] = parse_easing(args.easing)
    return replace(cfg, **overrides)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="animation config JSON file")
    parser.add_argument(
        "--model", choices=sorted(PRESETS), help="named parameter preset"
    )
    parser.add_argument("--sigma-a", dest="sigma_a", type=float, help="tip speed px/s")
    parser.add_argument("--delta0", type=float, help="resting stub ratio")
    parser.add_argument("--tau-half", dest="tau_half", type=float, help="hold ms")
    parser.add_argument(
        "--tau-distinct", dest="tau_distinct", type=float, help="separation ms"
    )
    parser.add_argument("--easing", help='"linear", "ease", or cubic-bezier:...')
    parser.add_argument("--fps", type=float, help="frames per second")


def _cmd_validate(args) -> int:
    _layout(args.layout)
    print("valid")
    return 0


def _cmd_crossings(args) -> int:
    from .crossings import find_avoidable_crossings

    layout = _layout(args.layout)
    delta0 = args.delta0 if args.delta0 is not None else 0.25
    for crossing in find_avoidable_crossings(layout, delta0):
        print(
            f"{crossing.edge_a.source},{crossing.edge_a.target} "
            f"{crossing.edge_b.source},{crossing.edge_b.target} "
            f"{crossing.point[0]:.6f} {crossing.point[1]:.6f} "
            f"{crossing.ratio_a:.6f} {crossing.ratio_b:.6f}"
        )
    return 0


def _cmd_schedule(args) -> int:
    layout = _layout(args.layout)
    cfg = _resolve_config(args)
    schedule = compute_schedule(layout, cfg)
    text = schedule_to_json(schedule)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"makespan_ms {schedule.makespan:.3f}")
    else:
        print(text)
        print(f"makespan_ms {schedule.makespan:.3f}", file=sys.stderr)
    return 0


def _refuse_mismatched(layout, schedule) -> bool:
    """Print why a schedule does not belong to the layout; True if it does not."""
    mismatches = schedule_mismatches(layout, schedule)
    if mismatches:
        for line in mismatches:
            print(line)
        print(f"failed {len(mismatches)} mismatches with the layout, schedule not sampled")
    return bool(mismatches)


def _cmd_check(args) -> int:
    layout = _layout(args.layout)
    schedule = parse_schedule(_read(args.schedule))
    if _refuse_mismatched(layout, schedule):
        return 1
    report = validate_schedule(layout, schedule.config, schedule)
    if report.passed:
        print(f"passed {report.sample_count} samples at 1.0 ms")
        return 0
    for v in report.violations:
        edges = " ".join(f"{a},{b}" for a, b in v.edges)
        print(f"{v.kind} {v.time_ms:.3f} {edges} {v.detail}")
    total = sum(n for _, n in report.violation_counts)
    kinds = ", ".join(f"{n} {kind}" for kind, n in report.violation_counts)
    unlisted = total - len(report.violations)
    print(f"failed {total} violations ({kinds}), {unlisted} not listed")
    return 1


def _cmd_render(args) -> int:
    if args.frame_at is not None and not math.isfinite(args.frame_at):
        raise UsageError(f"--frame-at must be a finite time, got {args.frame_at}")
    layout = _layout(args.layout)
    schedule = parse_schedule(_read(args.schedule))
    if _refuse_mismatched(layout, schedule):
        return 1
    cfg = schedule.config
    out_dir = Path(args.out)
    if args.frame_at is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (text,) = frame_texts(layout, cfg, schedule, [args.frame_at])
        path = out_dir / f"frame_at_{args.frame_at:.3f}ms.svg"
        path.write_text(text, encoding="utf-8")
        print(path)
        return 0
    written = export_animation(
        layout,
        cfg,
        schedule,
        out_dir,
        frames=not args.animated,
        animated=args.animated,
    )
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


def _cmd_trial(args) -> int:
    layout = _layout(args.layout)
    trial = make_trial(layout, args.task, args.seed)
    out = Path(args.output)
    out.write_text(trial_to_json(trial) + "\n", encoding="utf-8")
    colored = apply_trial_roles(layout, trial)
    layout_path = out.with_name(out.stem + "_layout.json")
    layout_path.write_text(layout_to_json(colored) + "\n", encoding="utf-8")
    print(out)
    print(layout_path)
    return 0


def _cmd_stats(args) -> int:
    layout = _layout(args.layout)
    if not (args.config_a or args.model_a) or not (args.config_b or args.model_b):
        raise UsageError("stats needs a config or model for both A and B")
    cfg_a = _base_config(args.config_a, args.model_a)
    cfg_b = _base_config(args.config_b, args.model_b)
    schedule_a = compute_schedule(layout, cfg_a)
    schedule_b = compute_schedule(layout, cfg_b)
    ratio = slowdown(schedule_a, schedule_b)
    print(f"makespan_a_ms {schedule_a.makespan:.3f}")
    print(f"makespan_b_ms {schedule_b.makespan:.3f}")
    print(f"slowdown {ratio:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemorph",
        description="Morphing edge drawings: validate, schedule, render, and score",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a layout file")
    p.add_argument("layout")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("crossings", help="list avoidable crossings")
    p.add_argument("layout")
    p.add_argument("--delta0", type=float, help="resting stub ratio (default 0.25)")
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser("schedule", help="compute an animation schedule")
    p.add_argument("layout")
    p.add_argument("-o", "--output", help="schedule file (default: stdout)")
    p.add_argument("--horizon", type=float, help="schedule horizon ms")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("check", help="validate a schedule against its layout")
    p.add_argument("layout")
    p.add_argument("schedule", help="schedule file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("render", help="render frames or an animated document")
    p.add_argument("layout")
    p.add_argument("--schedule", required=True, help="schedule file")
    p.add_argument("--out", required=True, help="output directory")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--animated", action="store_true", help="write animation.svg")
    one.add_argument(
        "--frame-at", dest="frame_at", type=float, help="render one frame at this ms"
    )
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("trial", help="generate a task trial")
    p.add_argument("layout")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("-o", "--output", required=True, help="trial file")
    p.set_defaults(handler=_cmd_trial)

    p = sub.add_parser("stats", help="compare makespans of two configurations")
    p.add_argument("--layout", required=True)
    p.add_argument("--config-a", dest="config_a")
    p.add_argument("--config-b", dest="config_b")
    p.add_argument("--model-a", dest="model_a", choices=sorted(PRESETS))
    p.add_argument("--model-b", dest="model_b", choices=sorted(PRESETS))
    p.set_defaults(handler=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # downstream consumer closed our stdout (e.g. piping into head)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EdgemorphError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
