"""Greedy crossing-aware scheduling of edge animations, plus validation.

Start times are chosen greedily: edges in decreasing order of morph duration,
each getting the earliest start that keeps its visits to every shared
avoidable crossing point separated from the other edge's visits by at least
the configured distinctness time. Feasibility is computed exactly with open
forbidden intervals on the start-time axis; a gap of exactly the distinctness
time is feasible. When a schedule horizon is set, further animations of each
edge are appended pass by pass for as long as they fit (each at least one
full animation plus the distinctness time after the previous one).

Edges are indices into ``layout.edges`` and crossings rows of the scan's
table; edge keys appear only in the results. Each edge keeps one sorted list
of its forbidden start windows, extended as its crossing partners gain
starts, and the earliest-feasible search bisects into that list just below
the candidate instead of rebuilding it. Because windows only accumulate, an
edge whose next animation overruns the horizon could never fit later: it is
retired, and the repeat passes end when no edge is left.

The first pass always places every edge once and every start is at or after
time zero, so the frame at time zero shows the resting drawing.

:func:`validate_schedule` is an independent check: it samples every edge's
stub ratio on a 1 ms time grid and verifies ratio bounds, crossing-point
separation, per-edge start separation, the horizon and the resting initial
frame, without reusing any of the interval arithmetic that placed the starts.
An edge rests at delta0 outside its animated span, so only that span, widened
on each side by the distinctness time, is sampled: memory grows with the
animated samples, not with edges times the grid. The spans go through the stub-ratio
kernel that rendering uses, and the eased samples of consecutive edges are
solved together, one easing call per block of about :data:`EASING_BLOCK`
fractions, so the easing cost is arithmetic, not call overhead. Float ratios
live only within such a block: spans are kept as levels, one byte per sample
(see :func:`validate_schedule`), and each crossing partner's levels are
dilated over the distinctness window by a numpy running maximum.

All starts are quantized to microseconds when placed (rounding up, which can
only relax separations), so serialized schedules with times at 3 decimal
places round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .crossings import _crossing_table
from .easing import evaluate_many, invert_many
from .errors import ConfigError, ParseError, RangeError, UsageError
from .graph import EdgeSpec, GraphLayout, json_number, json_object
from .kinematics import (
    AnimationConfig,
    EdgeAnimation,
    animated_cells,
    ceil_ms,
    config_from_dict,
    config_to_dict,
    edge_animation,
    stub_ratio_matrix,
)

_EPS_MS = 1e-6      # forgiveness for float noise in time comparisons
_EPS_RATIO = 1e-12  # forgiveness for float noise in ratio comparisons
#: Most samples one validator grid may hold: about 16.7 minutes at 1 ms steps.
MAX_SAMPLES = 1_000_000
#: Most starts one schedule may hold: about a second of repeat passes.
MAX_STARTS = 100_000
#: Eased fractions the validator collects across edges before one easing
#: solve: large enough that per-call overhead no longer dominates, small
#: enough that the solver's temporaries stay in cache and a batch never
#: holds the whole schedule.
EASING_BLOCK = 16_384


@dataclass(frozen=True)
class ScheduledEdge:
    animation: EdgeAnimation
    starts: tuple[float, ...]


@dataclass(frozen=True)
class Schedule:
    """Start times for every edge, with the configuration that produced them."""

    config: AnimationConfig
    edges: tuple[ScheduledEdge, ...]
    makespan: float

    def starts_by_key(self) -> dict[tuple[str, str], ScheduledEdge]:
        return {se.animation.edge.key: se for se in self.edges}


def _end(edges) -> float:
    """When the last animation of these scheduled edges ends; 0 without starts."""
    return max((ts + se.animation.total for se in edges for ts in se.starts), default=0.0)


def own_config(cfg: AnimationConfig, schedule: Schedule) -> AnimationConfig:
    """The schedule's config, which check and render read; UsageError if ``cfg`` differs."""
    if cfg != schedule.config:
        raise UsageError("cfg must be the schedule's own config, schedule.config")
    return schedule.config


def forbidden_start_window(
    reach: float,
    total: float,
    occupancy: tuple[float, float],
    tau_distinct: float,
) -> tuple[float, float]:
    """Open interval of start times that would violate one occupancy.

    A candidate animation covers the shared point on
    [start + reach, start + total - reach]. Given the other edge's occupancy
    [a, b], a start is feasible iff its coverage ends at least tau_distinct
    before a, or begins at least tau_distinct after b; equality counts as
    elapsed.
    """
    a, b = occupancy
    return (a - tau_distinct - (total - reach), b + tau_distinct - reach)


def conflict_constraints(
    layout: GraphLayout, cfg: AnimationConfig, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (a, b, reach_a, reach_b), one row per avoidable crossing.

    a and b index ``layout.edges``, and taus holds each edge's morph duration
    in that order. A reach is the time from an edge's start until its stub
    covers the crossing point; all of them go through the easing in one batch.
    """
    a, b, _, _, ratio_a, ratio_b = _crossing_table(layout, cfg.delta0)
    ratios = np.stack([ratio_a, ratio_b], axis=1)
    nearer = np.minimum(ratios, 1.0 - ratios)
    fracs = invert_many(cfg.easing, (nearer - cfg.delta0) / cfg.ratio_span)
    return a, b, taus[a] * fracs[:, 0], taus[b] * fracs[:, 1]


def compute_schedule(layout: GraphLayout, cfg: AnimationConfig) -> Schedule:
    """Greedy schedule for all edges of a layout under one configuration.

    Deterministic: ties in morph duration break lexicographically by edge id,
    and repeat passes walk edges in the same order. Raises ConfigError when a
    horizon is too short for even a single animation of every edge, or so
    long that the schedule would hold more than :data:`MAX_STARTS` starts,
    and when the schedule would end at or past :data:`MAX_SAMPLES` ms, beyond
    the 1 ms grid of :func:`validate_schedule`.
    """
    edges = layout.edges
    animations = [edge_animation(e, layout, cfg) for e in edges]
    totals = [anim.total for anim in animations]
    partners: list[list[tuple[int, float, float]]] = [[] for _ in edges]
    taus = np.array([anim.tau for anim in animations])
    columns = (column.tolist() for column in conflict_constraints(layout, cfg, taus))
    for a, b, reach_a, reach_b in zip(*columns):
        partners[a].append((b, reach_a, reach_b))
        partners[b].append((a, reach_b, reach_a))

    # No forbidden window of an edge is longer than its span (reaches lie in
    # [0, tau]). The 1 ms here and the relative 1e-9 in the search absorb
    # float noise in the window ends at any time scale.
    spans = [
        total
        + max((totals[other] for other, _, _ in group), default=0.0)
        + 2.0 * cfg.tau_distinct
        + 1.0
        for total, group in zip(totals, partners)
    ]
    order = sorted(range(len(edges)), key=lambda k: (-animations[k].tau, edges[k].key))
    starts: list[list[float]] = [[] for _ in edges]
    windows: list[list[tuple[float, float]]] = [[] for _ in edges]

    def place(k: int, ts: float) -> None:
        starts[k].append(ts)
        for other, reach_self, reach_other in partners[k]:
            occupancy = (ts + reach_self, ts + totals[k] - reach_self)
            insort(
                windows[other],
                forbidden_start_window(
                    reach_other, totals[other], occupancy, cfg.tau_distinct
                ),
            )

    def earliest_feasible(k: int, base: float) -> float:
        """Smallest microsecond-grid time >= base outside all open windows.

        Windows are swept in sorted order. Those starting more than a span
        before the candidate have ended by then, so the sweep skips them:
        the result is the one a sweep over every window gives.
        """
        c = ceil_ms(max(base, 0.0))
        wins = windows[k]
        i = bisect_left(wins, (c - spans[k] - 1e-9 * c,))
        while i < len(wins):
            lo, hi = wins[i]
            if c <= lo:
                break
            if c < hi:
                c = ceil_ms(hi)
            i += 1
        return c

    for k in order:
        place(k, earliest_feasible(k, 0.0))

    if cfg.horizon is not None:
        first_pass_end = max((starts[k][0] + totals[k] for k in order), default=0.0)
        if first_pass_end > cfg.horizon + _EPS_MS:
            raise ConfigError(
                f"horizon {cfg.horizon} ms cannot fit one animation of every "
                f"edge (needs {first_pass_end} ms)"
            )
        # Windows only accumulate and a failed edge keeps its base, so its
        # candidate can only move later: an edge that overruns the horizon
        # once is retired for good.
        active, count = order, len(order)
        while active:
            placed = []
            for k in active:
                base = starts[k][-1] + totals[k] + cfg.tau_distinct
                candidate = earliest_feasible(k, base)
                if candidate + totals[k] <= cfg.horizon + _EPS_MS:
                    place(k, candidate)
                    placed.append(k)
            active, count = placed, count + len(placed)
            if count > MAX_STARTS:
                raise ConfigError(
                    f"horizon {cfg.horizon} ms needs more than {MAX_STARTS} starts"
                )

    scheduled = tuple(
        ScheduledEdge(animations[k], tuple(starts[k]))
        for k in sorted(range(len(edges)), key=lambda k: edges[k].key)
    )
    makespan = _end(scheduled)
    if not makespan < MAX_SAMPLES:
        raise ConfigError(
            f"schedule ends at {makespan} ms; check samples only before {MAX_SAMPLES} ms"
        )
    return Schedule(config=cfg, edges=scheduled, makespan=makespan)


def sample_ratio_series(
    anim: EdgeAnimation,
    starts: tuple[float, ...],
    cfg: AnimationConfig,
    times: np.ndarray,
) -> np.ndarray:
    """Stub ratio of one edge at every time of an ascending sample grid.

    The edge's row of :func:`~edgemorph.kinematics.stub_ratio_matrix`: a start
    animates the times t with start < t < start + total, and where spans
    overlap the later-listed start wins.
    """
    return stub_ratio_matrix(cfg, [(anim, starts)], times)[0]


@dataclass(frozen=True)
class ScheduleViolation:
    # duplicate-edge | ratio-range | crossing-separation | start-separation |
    # initial-frame | horizon
    kind: str
    time_ms: float | None
    edges: tuple[tuple[str, str], ...]
    detail: str


@dataclass(frozen=True)
class ScheduleReport:
    """Validator verdict: at most 100 violations are listed, all are counted.

    ``sample_count`` counts the 1 ms grid's samples. ``violation_counts``
    holds one (kind, total) pair per kind that occurred, sorted by kind.
    """

    passed: bool
    sample_count: int
    violations: tuple[ScheduleViolation, ...]
    violation_counts: tuple[tuple[str, int], ...] = ()


def _window_max(values: np.ndarray, lag: int) -> np.ndarray:
    """Maximum over each sample's +-lag neighbours, zeros beyond both ends.

    The values are the validator's levels, and a resting edge is at level 0.
    Windows double up to the largest power of two within 2 * lag + 1; two of
    them, one from each end, cover a full window. Max is exact, so any split
    of the windows gives the same values, in the dtype of values.
    """
    width = 2 * lag + 1
    ends = np.zeros(lag, dtype=values.dtype)
    peak = np.concatenate([ends, values, ends])
    spare = peak.copy()
    span = 1
    while 2 * span <= width:
        # Two buffers, because numpy copies an input that overlaps the output.
        np.maximum(peak[:-span], peak[span:], out=spare[:-span])
        peak, spare = spare, peak
        span *= 2
    # peak[i] is now the max of padded samples i .. i + span - 1.
    n = len(values)
    return np.maximum(peak[:n], peak[width - span : width - span + n])


def validate_schedule(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule
) -> ScheduleReport:
    """Brute-force check of a schedule by time sampling.

    The schedule is checked under its own config, ``schedule.config``: the
    positional ``cfg`` must equal it, and any other raises UsageError.
    Samples every edge's ratio on a 1 ms grid over the whole schedule and
    checks: (a) ratios stay within [delta0, 1/2]; (b) for every avoidable
    crossing the two edges never cover the point within tau_distinct of each
    other (a gap of exactly tau_distinct is fine; at 0 coverages may touch,
    so a clash takes two consecutive samples); (c) per-edge starts are
    non-negative, sorted, and separated by a full animation plus tau_distinct;
    (d) everything rests at delta0 at time zero; (e) no edge is scheduled
    more than once; (f) with a horizon set, every animation ends by it.
    Checks (a), (c), (d) and (f) run on every entry of a duplicated edge, and
    (b) on its last entry. Edges absent from the schedule are treated as
    never animating. A grid of more than :data:`MAX_SAMPLES` samples raises
    RangeError before anything is allocated. The first 100 violations are
    listed, and all are counted by kind.

    Only each edge's animated span is sampled, widened on each side by the
    samples within tau_distinct: the span runs from its earliest start to its
    latest start plus one animation, and the edge rests at delta0 everywhere
    else. The second edge of a crossing is dilated by :func:`_window_max`
    over those samples. A crossing is checked where both widened spans
    overlap. The report is the one sampling every edge over the whole grid
    gives, but memory grows with the animated samples, not with edges times
    grid samples.

    A crossing only asks whether a ratio reaches a threshold: its nearer
    ratio less float noise, but at least the next float above delta0. So a
    resting stub covers no avoidable crossing, as in the schedule, not even
    one within float noise of delta0. A sample's level counts the thresholds
    of its edge that its ratio reaches, so a resting sample is at level 0;
    the ratio reaches a threshold exactly when the level reaches the
    threshold's rank, one plus the position of the first equal threshold in
    the edge's sorted list. A running maximum commutes with this
    non-decreasing count, so spans are kept and dilated as levels: one byte
    per sample, two past 255 thresholds.

    Each entry's span goes through :func:`~edgemorph.kinematics.animated_cells`,
    but its eased fractions are held back: once about :data:`EASING_BLOCK`
    wait, one easing call solves them all and the held entries are checked
    in schedule order. The easing is elementwise, so the ratios are bit for
    bit the ones rendering draws; they live only until the block's levels
    and its ratio-range and initial-frame checks are done.
    """
    cfg = own_config(cfg, schedule)
    end = max(schedule.makespan, _end(schedule.edges))
    span = end if end > 0 else 0.0
    if not span < MAX_SAMPLES:
        raise RangeError(f"{end} ms at 1.0 ms steps needs more than {MAX_SAMPLES} samples")
    count = int(np.floor(span)) + 1
    times = np.arange(count, dtype=float)

    violations: list[ScheduleViolation] = []
    counts: dict[str, int] = {}

    def add(kind, time_ms, edges, detail):
        counts[kind] = counts.get(kind, 0) + 1
        if len(violations) < 100:
            violations.append(ScheduleViolation(kind, time_ms, edges, detail))

    for key, n in Counter(se.animation.edge.key for se in schedule.edges).items():
        if n > 1:
            add("duplicate-edge", None, (key,), f"scheduled {n} times")

    # compute_schedule places starts within the same bound.
    horizon = math.inf if cfg.horizon is None else cfg.horizon + _EPS_MS
    for se in schedule.edges:
        key = se.animation.edge.key
        prev = None
        for ts in se.starts:
            if ts < 0.0:
                add("start-separation", ts, (key,), "negative start")
            if (ends := ts + se.animation.total) > horizon:
                add("horizon", ts, (key,), f"ends at {ends} ms > horizon {cfg.horizon} ms")
            if prev is not None:
                needed = se.animation.total + cfg.tau_distinct
                if ts - prev < needed - _EPS_MS:
                    add(
                        "start-separation",
                        ts,
                        (key,),
                        f"gap {ts - prev} ms < animation + distinctness {needed} ms",
                    )
            prev = ts

    a, b, px, py, *ratios = _crossing_table(layout, cfg.delta0)
    # Each edge's sorted thresholds, from its crossings in either role, and
    # each row's rank in them. All lie above delta0, so the resting level is
    # 0. Index len(layout.edges) stands for a scheduled edge outside the
    # layout, which has none.
    edge = np.concatenate([a, b])
    ratio = np.concatenate(ratios)
    nearer = np.minimum(ratio, 1.0 - ratio)
    threshold = np.maximum(nearer - _EPS_RATIO, np.nextafter(cfg.delta0, 1.0))
    order = np.lexsort((threshold, edge))
    edge, threshold = edge[order], threshold[order]
    bounds = np.searchsorted(edge, np.arange(len(layout.edges) + 2))
    fresh = (np.diff(edge, prepend=-1) != 0) | (np.diff(threshold, prepend=np.nan) != 0)
    first_equal = np.maximum.accumulate(np.where(fresh, np.arange(len(edge)), 0))
    rank = np.empty(len(edge), dtype=int)
    rank[order] = first_equal - bounds[edge] + 1
    index = {e.key: k for k, e in enumerate(layout.edges)}

    lag = math.floor(cfg.tau_distinct - _EPS_MS)
    # A window wider than the grid already covers all of it.
    margin = min(max(lag, 0), count)
    # layout index -> (grid index of the first sample, levels of the widened span)
    series: dict[int, tuple[int, np.ndarray]] = {}
    # Entries whose eased samples wait for one easing solve across entries.
    held: list[tuple] = []

    def check_held() -> None:
        """Ease every held fraction in one call, then check the entries in order."""
        batch = np.concatenate([h[-1] for h in held])
        ratios = evaluate_many(cfg.easing, batch)  # delta0 + ratio_span * eased
        ratios *= cfg.ratio_span
        ratios += cfg.delta0
        least, most = cfg.delta0 - _EPS_RATIO, 0.5 + _EPS_RATIO
        leaves = ratios.size and not (ratios.min() >= least and ratios.max() <= most)
        a = 0
        for key, lo, at_zero, levels, thresholds, cells, fractions in held:
            eased = ratios[a : a + len(fractions)]
            a += len(fractions)
            levels[cells] = thresholds.searchsorted(eased, side="right")
            if at_zero:
                # Cell 0 animates: it eases if it is the first eased cell.
                ratio = eased[0] if len(cells) and cells[0] == 0 else 0.5
                if abs(ratio - cfg.delta0) > _EPS_RATIO:
                    add("initial-frame", 0.0, (key,), f"ratio {ratio} at time 0")
            if leaves and np.any(wrong := (eased < least) | (eased > most)):
                i = int(np.argmax(wrong))
                add("ratio-range", float(times[lo + cells[i]]), (key,), f"ratio {eased[i]}")
        held.clear()

    waiting = 0
    for se in schedule.edges:
        key = se.animation.edge.key
        lo = hi = 0
        if se.starts:
            lo = int(np.searchsorted(times, min(se.starts), side="right"))
            last_end = max(se.starts) + se.animation.total
            hi = int(np.searchsorted(times, last_end, side="left"))
            lo, hi = max(0, lo - margin), min(count, hi + margin)
        cells, eased, fractions = animated_cells(
            times[lo:hi], se.starts, se.animation.tau, se.animation.total, cfg.tau_half
        )
        k = index.get(key, len(layout.edges))
        thresholds = threshold[bounds[k] : bounds[k + 1]]
        levels = np.zeros(hi - lo, dtype=np.min_scalar_type(len(thresholds)))
        levels[cells] = len(thresholds)  # the hold at 1/2 reaches every threshold
        series[k] = (lo, levels)
        at_zero = lo == 0 and len(cells) and cells[0] == 0
        held.append((key, lo, at_zero, levels, thresholds, cells[eased], fractions))
        waiting += len(fractions)
        if waiting >= EASING_BLOCK:
            check_held()
            waiting = 0
    if held:
        check_held()

    dilated: dict[int, tuple[int, np.ndarray]] = {}

    def dilate(k: int) -> tuple[int, np.ndarray]:
        """Maximum of the levels over +-margin samples, on the widened span.

        The span holds every sample within margin of an animated one and the
        series rests at level 0 beyond it, so the window maximum of the span
        equals the dilation of the whole grid there.
        """
        if k not in dilated:
            first, levels = series[k]
            dilated[k] = (first, _window_max(levels, margin))
        return dilated[k]

    keys = [e.key for e in layout.edges]
    # Free each partner's dilated span after the last row that reads it.
    last_row = {q: row for row, q in enumerate(b.tolist())}
    columns = (c.tolist() for c in (a, b, px, py, rank[: len(a)], rank[len(a) :]))
    for row, (p, q, x, y, rank_a, rank_b) in enumerate(zip(*columns)):
        if p not in series or q not in series:
            continue
        (first_a, levels_a), (first_b, dilated_b) = series[p], dilate(q)
        if row == last_row[q]:
            del dilated[q]
        # Both edges rest at level 0, below every rank, outside their spans.
        lo = max(first_a, first_b)
        hi = min(first_a + len(levels_a), first_b + len(dilated_b))
        if lo >= hi:
            continue
        cover_a = levels_a[lo - first_a : hi - first_a] >= rank_a
        near_b = dilated_b[lo - first_b : hi - first_b] >= rank_b
        clash = cover_a & near_b
        if lag < 0:
            # Coverages that only touch share one instant, allowed at 0.
            clash = clash[:-1] & clash[1:]
        if clash.any():
            i = lo + int(np.argmax(clash))
            add(
                "crossing-separation",
                float(times[i]),
                (keys[p], keys[q]),
                f"both within {cfg.tau_distinct} ms of crossing ({x:.3f}, {y:.3f})",
            )

    return ScheduleReport(
        passed=not violations,
        sample_count=count,
        violations=tuple(violations),
        violation_counts=tuple(sorted(counts.items())),
    )


def schedule_mismatches(layout: GraphLayout, schedule: Schedule) -> list[str]:
    """Ways in which a schedule was not made for a layout, one line each.

    Every layout edge must be scheduled exactly once, every scheduled edge
    must be a layout edge, and each stored morph duration must equal the one
    :func:`edge_animation` gives under the schedule's own configuration.
    :func:`validate_schedule` only reports the duplicates: it treats an
    unscheduled edge as never animating and trusts the stored durations.
    """
    layout_keys = {edge.key for edge in layout.edges}
    out = []
    seen: set[tuple[str, str]] = set()
    for se in schedule.edges:
        key = se.animation.edge.key
        name = f"{key[0]},{key[1]}"
        if key in seen:
            out.append(f"duplicate-edge {name} is scheduled more than once")
            continue
        seen.add(key)
        if key not in layout_keys:
            out.append(f"unknown-edge {name} is not an edge of the layout")
            continue
        tau = edge_animation(se.animation.edge, layout, schedule.config).tau
        if abs(se.animation.tau - tau) > _EPS_MS:
            out.append(
                f"morph-duration {name} tau {se.animation.tau} ms, "
                f"the layout gives {tau} ms"
            )
    for edge in layout.edges:
        if edge.key not in seen:
            out.append(f"missing-edge {edge.source},{edge.target} has no schedule entry")
    return out


def slowdown(schedule: Schedule, baseline: Schedule) -> float:
    """Makespan / baseline makespan - 1, for two schedules of the same edge set.

    The makespan is the schedule's own span: a single pass when no horizon
    was set, repeats included otherwise, so model comparisons should use
    schedules built the same way.
    """
    keys = {se.animation.edge.key for se in schedule.edges}
    if keys != {se.animation.edge.key for se in baseline.edges}:
        raise UsageError("schedules cover different edge sets")
    if baseline.makespan <= 0.0:
        raise UsageError("baseline schedule has zero makespan")
    return schedule.makespan / baseline.makespan - 1.0


def schedule_to_dict(schedule: Schedule) -> dict:
    """JSON-ready form; all times rounded to 3 decimals (already exact)."""
    return {
        "config": config_to_dict(schedule.config),
        "makespan_ms": round(schedule.makespan, 3),
        "edges": [
            {
                "source": se.animation.edge.source,
                "target": se.animation.edge.target,
                "tau_ms": round(se.animation.tau, 3),
                "total_ms": round(se.animation.total, 3),
                "starts_ms": [round(ts, 3) for ts in se.starts],
            }
            for se in schedule.edges
        ],
    }


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=2)


def schedule_from_dict(doc: dict) -> Schedule:
    """Rebuild a schedule from its file form.

    Totals and the makespan are recomputed from the stored morph durations
    and the embedded configuration, so a written schedule reads back equal to
    the in-memory original. The config must be a JSON object, the edges and
    each edge's starts JSON arrays, and every time a JSON number: strings and
    booleans are refused.
    """
    try:
        config_doc, entries = doc["config"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"schedule document is missing {exc}") from exc
    if not isinstance(config_doc, dict):
        raise ParseError("schedule config must be a JSON object")
    if not isinstance(entries, list):
        raise ParseError("schedule edges must be a JSON array")
    cfg = config_from_dict(config_doc)
    edges = []
    for entry in entries:
        try:
            source, target = entry["source"], entry["target"]
            if not isinstance(source, str) or not isinstance(target, str):
                raise ParseError("schedule edge endpoints must be node id strings")
            edge = EdgeSpec(source, target)
            tau = json_number(entry["tau_ms"])
            if not isinstance(entry["starts_ms"], list):
                raise ParseError(
                    f"starts of schedule edge {edge.source}-{edge.target} are not a JSON array"
                )
            starts = tuple(json_number(ts) for ts in entry["starts_ms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad schedule edge entry: {exc}") from exc
        total = 2.0 * tau + cfg.tau_half
        if not all(map(math.isfinite, (tau, total, *starts))):
            raise ParseError(
                f"non-finite time in schedule edge {edge.source}-{edge.target}"
            )
        if any(later < earlier for earlier, later in zip(starts, starts[1:])):
            raise ParseError(
                f"starts of schedule edge {edge.source}-{edge.target} are not sorted"
            )
        anim = EdgeAnimation(edge=edge, tau=tau, total=total)
        edges.append(ScheduledEdge(anim, starts))
    makespan = _end(edges)
    if not math.isfinite(makespan):
        raise ParseError(f"schedule makespan overflows: {makespan}")
    return Schedule(config=cfg, edges=tuple(edges), makespan=makespan)


def parse_schedule(raw: bytes | str) -> Schedule:
    return schedule_from_dict(json_object(raw, "schedule"))
