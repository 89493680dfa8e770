"""Benchmark of the edgemorph pipeline: schedule, check and render jobs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload render_n40 --seed 1 --seconds 35 --trace 0

One process, one client, one job at a time (a closed loop). Jobs cycle in
rounds of schedule, check, render_frames and render_animated; within a
round a job kind repeats until it has had ROUND_SHARE_S of time, so cheap
jobs get more samples than the multi-second renders. The loop ends at the
first job boundary after --seconds once every kind has a sample. Each job
time, and the set-up time, is scaled to a reference host by a calibration
loop timed around it (see ``jobs.calibrate``), because this host's speed
changes by up to a factor of two for minutes at a time.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 rounds alternate between untraced and traced, and it holds the
per-layer metrics and the tracing overhead. The line before it is the run
record (seed, versions, sample counts, output digests). Records and span
files go to bench/out/. See bench/README.md for the metric definitions.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# Pin the native thread pools before numpy loads: one client, one core's work.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Time each job kind gets per round before the next kind runs, in seconds.
ROUND_SHARE_S = 0.5
#: Set-ups measured per run (this process plus fresh child processes).
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "schedule_ms": "ms",
    "check_ms": "ms",
    "render_frames_ms": "ms",
    "render_animated_ms": "ms",
    "makespan_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics read from spans: (metric, span, per-job statistic, job
#: kind). Each is the median over the traced jobs of that kind, because one
#: function can do different work in different jobs; the run record keeps
#: every span's figures for every kind.
SPAN_METRICS = [
    ("graph.parse_layout.ms", "graph.parse_layout", "ms", "schedule"),
    ("graph.validate_layout.ms", "graph.validate_layout", "ms", "schedule"),
    ("graph.stub_pair.calls", "graph.stub_pair", "calls", "render_frames"),
    ("graph.stub_pair.ms", "graph.stub_pair", "ms", "render_frames"),
    ("crossings.scan.calls", "crossings.scan", "calls", "schedule"),
    ("crossings.scan.ms", "crossings.scan", "ms", "schedule"),
    ("crossings.found", "crossings.scan", "size_per_call", "schedule"),
    ("easing.evaluate.calls", "easing.evaluate", "calls", "render_frames"),
    ("easing.evaluate.ms", "easing.evaluate", "ms", "render_frames"),
    ("easing.evaluate_many.calls", "easing.evaluate_many", "calls", "check"),
    ("easing.evaluate_many.elems", "easing.evaluate_many", "size", "check"),
    ("easing.evaluate_many.ms", "easing.evaluate_many", "ms", "check"),
    ("easing.invert_many.calls", "easing.invert_many", "calls", "schedule"),
    ("easing.invert_many.elems", "easing.invert_many", "size", "schedule"),
    ("easing.invert_many.ms", "easing.invert_many", "ms", "schedule"),
    ("easing.verify_monotone.calls", "easing.verify_monotone", "calls", "check"),
    ("easing.verify_monotone.ms", "easing.verify_monotone", "ms", "check"),
    ("kinematics.stub_ratio_at.calls", "kinematics.stub_ratio_at", "calls", "render_frames"),
    ("kinematics.stub_ratio_at.ms", "kinematics.stub_ratio_at", "ms", "render_frames"),
    ("kinematics.edge_animation.calls", "kinematics.edge_animation", "calls", "schedule"),
    ("kinematics.edge_animation.ms", "kinematics.edge_animation", "ms", "schedule"),
    ("scheduling.conflict_constraints.ms", "scheduling.conflict_constraints", "ms", "schedule"),
    ("scheduling.compute_schedule.ms", "scheduling.compute_schedule", "ms", "schedule"),
    ("scheduling.validate_schedule.ms", "scheduling.validate_schedule", "ms", "check"),
    ("scheduling.sample_ratio_series.calls", "scheduling.sample_ratio_series", "calls", "check"),
    ("scheduling.sample_ratio_series.ms", "scheduling.sample_ratio_series", "ms", "check"),
    ("scheduling.validator_samples", "scheduling.sample_ratio_series", "size", "check"),
    ("scheduling.schedule_to_json.ms", "scheduling.schedule_to_json", "ms", "schedule"),
    ("scheduling.parse_schedule.ms", "scheduling.parse_schedule", "ms", "check"),
    ("render.sample_frame.calls", "render.sample_frame", "calls", "render_frames"),
    ("render.sample_frame.ms", "render.sample_frame", "ms", "render_frames"),
    ("render.frame_to_svg.calls", "render.frame_to_svg", "calls", "render_frames"),
    ("render.frame_to_svg.ms", "render.frame_to_svg", "ms", "render_frames"),
    ("render.export.frames.ms", "render.export", "ms", "render_frames"),
    ("render.export.animated.ms", "render.export", "ms", "render_animated"),
]

#: Per-layer metrics computed from layouts and outputs rather than spans.
FACT_UNITS = {
    "graph.edges": "count",
    "crossings.pairs": "count",
    "crossings.hit_ratio": "ratio",
    "easing.elems_per_call": "count",
    "scheduling.starts": "count",
    "scheduling.passes": "count",
    "scheduling.violations": "count",
    "render.frames": "count",
    "render.bytes_written": "bytes",
    "trace.overhead_ms": "ms",
}


def span_unit(stat: str) -> str:
    return "ms" if stat == "ms" else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time and exit (used for set-up samples)",
    )
    return parser.parse_args(argv)


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git; else None."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def child_setup_seconds(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(jobs, run, seconds: float, tracer):
    """The closed loop; returns per-kind times (untraced, traced) and failures."""
    times = {kind: [] for kind in jobs.KINDS}
    raw_times = {kind: [] for kind in jobs.KINDS}
    traced_times = {kind: [] for kind in jobs.KINDS}
    failures = []
    attempted = 0
    tried = set()  # (traced, kind) pairs run at least once, failed or not
    modes = (False, True) if tracer else (False,)
    deadline = time.perf_counter() + seconds

    def done() -> bool:
        return time.perf_counter() >= deadline and all(
            (traced, kind) in tried for traced in modes for kind in jobs.KINDS
        )

    round_no = 0
    while not done():
        traced = tracer is not None and round_no % 2 == 1
        sink = traced_times if traced else times
        for kind in jobs.KINDS:
            spent = 0.0
            while spent < ROUND_SHARE_S and not done():
                attempted += 1
                tried.add((traced, kind))
                try:
                    scaled, elapsed, problems = jobs.run_job(
                        run, kind, tracer if traced else None
                    )
                except Exception:  # a job that raises is a failed op; keep going
                    failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
                    print(failures[-1], file=sys.stderr)
                    if kind == "schedule" and run.schedule_raw is None:
                        return times, raw_times, traced_times, attempted, failures
                    break
                spent += elapsed
                sink[kind].append(scaled)
                if not traced:
                    raw_times[kind].append(elapsed)
                if problems:
                    failures.append(f"{kind}: {'; '.join(problems)}")
                    print(failures[-1], file=sys.stderr)
        round_no += 1
    return times, raw_times, traced_times, attempted, failures


def layout_facts(layout) -> dict:
    edges = len(layout.edges)
    degrees = [len(neigh) for neigh in layout.adjacency.values()]
    adjacent = sum(d * (d - 1) // 2 for d in degrees)
    return {"graph.edges": edges, "crossings.pairs": edges * (edges - 1) // 2 - adjacent}


def layer_metrics(totals, run, times, traced_times, layout) -> dict:
    values = {}
    for metric, span, stat, kind in SPAN_METRICS:
        per_job = totals.get(span, {}).get(kind)
        if per_job is None:
            values[metric] = 0.0
        elif stat == "size_per_call":
            values[metric] = statistics.median(
                s / c for s, c in zip(per_job["size"], per_job["calls"])
            )
        else:
            values[metric] = statistics.median(per_job[stat])
    values.update(layout_facts(layout))
    pairs = values["crossings.pairs"]
    values["crossings.hit_ratio"] = values["crossings.found"] / pairs if pairs else 0.0
    # Elements per easing call over one job of each kind (per-kind medians,
    # summed); a scalar evaluate call is one element.
    calls = elems = 0.0
    for span, elem_stat in (
        ("easing.evaluate", "calls"),
        ("easing.evaluate_many", "size"),
        ("easing.invert_many", "size"),
    ):
        for per_job in totals.get(span, {}).values():
            calls += statistics.median(per_job["calls"])
            elems += statistics.median(per_job[elem_stat])
    values["easing.elems_per_call"] = elems / calls if calls else 0.0
    values["scheduling.starts"] = run.facts.get("starts", 0)
    values["scheduling.passes"] = run.facts.get("passes", 0)
    values["scheduling.violations"] = run.facts.get("violations", 0)
    values["render.frames"] = run.facts.get("frames", 0)
    values["render.bytes_written"] = run.facts.get("frames_bytes", 0) + run.facts.get(
        "animation_bytes", 0
    )
    values["trace.overhead_ms"] = 1000.0 * sum(
        statistics.median(traced_times[k]) - statistics.median(times[k])
        for k in times
        if times[k] and traced_times[k]
    )
    units = {metric: span_unit(stat) for metric, _, stat, _ in SPAN_METRICS}
    units.update(FACT_UNITS)
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def layers_by_kind(totals) -> dict:
    """Every span's per-job medians for every job kind it occurs in."""
    return {
        span: {
            kind: {"jobs": len(per_job["calls"])}
            | {stat: statistics.median(per_job[stat]) for stat in ("calls", "ms", "size")}
            for kind, per_job in by_kind.items()
        }
        for span, by_kind in totals.items()
    }


def run_record(args, run, samples, attempted, failures, setups, tracer, totals):
    import jobs
    import numpy
    import scipy

    def summary(times):
        return {
            kind: {"n": len(v), "quartiles_ms": [1000.0 * q for q in quartiles(v)]}
            for kind, v in times.items()
            if v
        }

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": jobs.layouts.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "thread_pins": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "attempted": attempted,
        "failures": failures,
        "reference_calibration_ms": 1000.0 * jobs.REFERENCE_CALIBRATION_S,
        **{name: summary(times) for name, times in samples.items()},
        "setup_samples_s": setups,
        "facts": run.facts,
        "sha256": run.digests,
        "absent_spans": tracer.absent if tracer is not None else [],
        "layers_by_kind": layers_by_kind(totals),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgemorph" / "__init__.py").is_file():
        print(f"error: no edgemorph sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import edgemorph

    if Path(edgemorph.__file__).resolve().parent != SRC / "edgemorph":
        print(f"error: edgemorph imported from {edgemorph.__file__}", file=sys.stderr)
        return 2
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up: imports (above), input generation and a warm-up.
    OUT.mkdir(exist_ok=True)
    run = jobs.Run(jobs.WORKLOADS[args.workload], args.seed, OUT)
    jobs.warm_up(run.workload, OUT)
    setup_s = time.perf_counter() - PROCESS_START
    setup_s *= jobs.REFERENCE_CALIBRATION_S / jobs.calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(jobs.TRACE_TARGETS)
    try:
        times, raw_times, traced_times, attempted, failures = measure(
            jobs, run, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    totals = {}
    if tracer is not None:
        setups = [setup_s]
        layout = jobs.graph.parse_layout(run.layout_raw)
        totals = spans.per_job_totals(tracer)
        metrics = layer_metrics(totals, run, times, traced_times, layout)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        setups = [setup_s] + child_setup_seconds(args)
        medians = {k: 1000.0 * statistics.median(v) if v else 0.0 for k, v in times.items()}
        values = {
            "schedule_ms": medians["schedule"],
            "check_ms": medians["check"],
            "render_frames_ms": medians["render_frames"],
            "render_animated_ms": medians["render_animated"],
            "makespan_ms": run.facts.get("makespan_ms", 0.0),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    samples = {"jobs": times, "raw_jobs": raw_times, "traced_jobs": traced_times}
    record = run_record(args, run, samples, attempted, failures, setups, tracer, totals)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": not failures and attempted > 0,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
