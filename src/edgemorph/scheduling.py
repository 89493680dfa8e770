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
the candidate instead of rebuilding it. Only live windows are inserted: an
edge's next search starts at a base (0, then a full animation plus the
distinctness time after its last start; never, once placed without a horizon
or retired), and a window ending at or before it can move no candidate.
Because windows only accumulate, an edge whose next animation overruns the
horizon could never fit later: it is retired, and the repeat passes end when
no edge is left.

The first pass always places every edge once and every start is at or after
time zero, so the frame at time zero shows the resting drawing.

:func:`validate_schedule` is an independent check of ratio bounds,
crossing-point separation, per-edge start separation, the horizon and the
resting initial frame on a 1 ms time grid. It reuses none of the interval
arithmetic that placed the starts: by searches on the forward easing, with
the ratios rendering draws, through the kernel's owner rule and phase
formula, it finds the grid samples where each start covers each crossing
point, as ranges, and compares crossing partners'.
Each search starts where a table of the forward easing puts its answer, and
bisects where that hint missed: the hint never decides a verdict.

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
from itertools import islice

import numpy as np

from .crossings import _crossing_table
from .easing import evaluate_many, invert_many
from .errors import ConfigError, ParseError, RangeError, UsageError
from .graph import EdgeSpec, GraphLayout, json_number, json_object
from .kinematics import (
    AnimationConfig,
    EdgeAnimation,
    _owned,
    _phase,
    _ranges,
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
# Evenly spaced fractions at which the validator tabulates the forward easing
# once, to start each search near its answer.
_KNOTS = 1025


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
    and repeat passes walk edges in the same order; only live windows are
    inserted (see the module docstring). Raises ConfigError when a
    horizon is too short for even a single animation of every edge, or so
    long that the schedule would hold more than :data:`MAX_STARTS` starts,
    and when the schedule would end at or past :data:`MAX_SAMPLES` ms, beyond
    the 1 ms grid of :func:`validate_schedule`.
    """
    edges = layout.edges
    animations = [edge_animation(e, layout, cfg) for e in edges]
    totals = [anim.total for anim in animations]
    taus = np.array([anim.tau for anim in animations])
    a, b, reach_a, reach_b = conflict_constraints(layout, cfg, taus)

    # No forbidden window of an edge is longer than its span (reaches lie in
    # [0, tau]), whichever crossing partner pushed it. The 1 ms here and the
    # relative 1e-9 in the search absorb float noise in the window ends at
    # any time scale.
    total_of = np.array(totals)
    widest = np.zeros(len(edges))
    np.maximum.at(widest, a, total_of[b])
    np.maximum.at(widest, b, total_of[a])
    spans = (total_of + widest + 2.0 * cfg.tau_distinct + 1.0).tolist()
    order = sorted(range(len(edges)), key=lambda k: (-animations[k].tau, edges[k].key))

    # partners[k]: the crossing partners that read the windows k's starts
    # push to them, with both reaches and the rest of the partner's animation
    # after its reach. Without a horizon each edge searches once, just before
    # it is placed, so only partners placed after k do.
    pushes = [(a, b, reach_a, reach_b), (b, a, reach_b, reach_a)]
    if cfg.horizon is None:
        rank = np.empty(len(edges), dtype=int)
        rank[order] = np.arange(len(edges))
        first = rank[a] < rank[b]
        pushes = [
            tuple(column[mask] for column in push)
            for push, mask in zip(pushes, (first, ~first))
        ]
    partners: list[list[tuple[int, float, float, float]]] = [[] for _ in edges]
    for push in pushes:
        for k, other, reach_self, reach_other in zip(*(c.tolist() for c in push)):
            partners[k].append((other, reach_self, reach_other, totals[other] - reach_other))

    tau_distinct = cfg.tau_distinct
    starts: list[list[float]] = [[] for _ in edges]
    windows: list[list[tuple[float, float]]] = [[] for _ in edges]
    # searched[k]: where k's next search begins; inf once it never searches again.
    searched = [0.0] * len(edges)

    def place(k: int, ts: float) -> None:
        # Windows as forbidden_start_window forms them, each only if live.
        starts[k].append(ts)
        end = ts + totals[k]
        searched[k] = math.inf if cfg.horizon is None else end + tau_distinct
        for other, reach_self, reach_other, rest_other in partners[k]:
            hi = end - reach_self + tau_distinct - reach_other
            if hi > searched[other]:
                insort(windows[other], (ts + reach_self - tau_distinct - rest_other, hi))

    def earliest_feasible(k: int, base: float) -> float:
        """Smallest microsecond-grid time >= base outside all open windows.

        Windows are swept in sorted order. Those starting more than a span
        before the candidate have ended by then, so the sweep skips them:
        the result is the one a sweep over every window gives. Bases are
        never negative, and the ceilings are ceil_ms's, inline.
        """
        wins = windows[k]
        c = base
        try:
            c = math.ceil(c * 1000.0) / 1000.0
            i = bisect_left(wins, (c - spans[k] - 1e-9 * c,))
            for lo, hi in islice(wins, i, None):
                if c <= lo:
                    break
                if c < hi:
                    c = hi
                    c = math.ceil(c * 1000.0) / 1000.0
        except (OverflowError, ValueError):
            ceil_ms(c)  # raises the RangeError for the time that overflowed
            raise
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
                candidate = earliest_feasible(k, searched[k])
                if candidate + totals[k] <= cfg.horizon + _EPS_MS:
                    place(k, candidate)
                    placed.append(k)
                else:
                    searched[k] = math.inf
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


def validate_schedule(
    layout: GraphLayout, cfg: AnimationConfig, schedule: Schedule
) -> ScheduleReport:
    """Independent check of a schedule at the 1 ms grid samples up to its end.

    The schedule is checked under its own config, ``schedule.config``: the
    positional ``cfg`` must equal it, and any other raises UsageError.
    Checks: (a) probed ratios stay within [delta0, 1/2]; (b) for every avoidable
    crossing the two edges never cover the point within tau_distinct of each
    other (a gap of exactly tau_distinct is fine; at 0 coverages may touch,
    so a clash takes two consecutive samples); (c) per-edge starts are
    non-negative, sorted, and separated by a full animation plus tau_distinct;
    (d) everything rests at delta0 at time zero; (e) no edge is scheduled
    more than once; (f) with a horizon set, every animation ends by it.
    Checks (c), (d) and (f) run on every entry of a duplicated edge, and (b)
    on its last entry. Edges absent from the schedule are treated as never
    animating. A non-finite start raises RangeError naming its edge, and a
    non-finite makespan or a grid of more than :data:`MAX_SAMPLES` samples
    RangeError, before anything is eased. The first 100 violations are
    listed, and all are counted by kind.

    A crossing only asks when a ratio reaches a threshold: its nearer ratio
    less float noise, but at least the next float above delta0, so a resting
    stub covers no avoidable crossing, as in the schedule. Within one start
    the ratio rises, holds at 1/2 and falls, so the samples where it reaches
    a threshold form one range. One vectorised search over every start of
    every distinct (edge, threshold) pair finds both ends of those ranges,
    within the samples that each start owns. It starts at a hint: the
    forward easing, tabulated once at 1 025 even fractions and interpolated,
    gives the sample where each end should lie, and the first two probes go
    there and just before it; bisection goes on where they miss. Owned
    samples and each probe's phase come from the kernel's owner rule and
    phase formula (:func:`~edgemorph.kinematics._owned`, ``_phase``), so a
    probe's ratio is the one rendering draws, eased by the forward easing
    only: no arithmetic is shared with placement, and verdicts come from
    probes only; the search rests on eased ratios never decreasing along the
    grid, which ``tests/test_easing.py`` pins. A crossing clashes where a
    range of its first edge meets one of its second widened by the samples
    within tau_distinct, and the first such sample is reported. The sample
    at time 0 is probed for entries with a start below 0; (a) sees probes
    only.
    """
    cfg = own_config(cfg, schedule)
    for se in schedule.edges:
        if not all(map(math.isfinite, se.starts)):
            source, target = se.animation.edge.key
            raise RangeError(f"non-finite start in schedule edge {source}-{target}")
    if not math.isfinite(schedule.makespan):
        raise RangeError(f"non-finite schedule makespan {schedule.makespan}")
    end = max(schedule.makespan, _end(schedule.edges))
    span = end if end > 0 else 0.0
    if not span < MAX_SAMPLES:
        raise RangeError(f"{end} ms at 1.0 ms steps needs more than {MAX_SAMPLES} samples")
    count = int(np.floor(span)) + 1

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
    # entry -> its last-listed start below 0: it owns the sample at time 0
    at_zero: dict[int, float] = {}
    for n, se in enumerate(schedule.edges):
        key = se.animation.edge.key
        prev = None
        for ts in se.starts:
            if ts < 0.0:
                add("start-separation", ts, (key,), "negative start")
                if 0.0 < ts + se.animation.total:
                    at_zero[n] = ts
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

    taus = np.array([se.animation.tau for se in schedule.edges])
    totals = np.array([se.animation.total for se in schedule.edges])
    least, most = cfg.delta0 - _EPS_RATIO, 0.5 + _EPS_RATIO
    off_curve: dict[int, tuple[float, float]] = {}  # entry -> first (time, ratio)

    def drawn(entries, starts, times):
        """Growing and retracting masks, and ratios, of starts at grid times.

        Ratios outside [delta0, 1/2] are noted for their entries.
        """
        growing, retracting, fractions = _phase(
            times - starts, taus[entries], totals[entries], cfg.tau_half
        )
        ratios = np.full(len(growing), 0.5)
        eased = evaluate_many(cfg.easing, fractions) * cfg.ratio_span + cfg.delta0
        ratios[growing | retracting] = eased
        wrong = (ratios < least) | (ratios > most)
        for n, t, ratio in zip(*(x[wrong].tolist() for x in (entries, times, ratios))):
            off_curve[n] = min(off_curve.get(n, (math.inf, 0.0)), (float(t), ratio))
        return growing, retracting, ratios

    entries = np.array(list(at_zero), dtype=int)
    _, _, ratios = drawn(entries, np.array(list(at_zero.values())), np.zeros(len(at_zero)))
    for n, ratio in zip(entries.tolist(), ratios.tolist()):
        if abs(ratio - cfg.delta0) > _EPS_RATIO:
            key = schedule.edges[n].animation.edge.key
            add("initial-frame", 0.0, (key,), f"ratio {ratio} at time 0")

    a, b, px, py, *ratio = _crossing_table(layout, cfg.delta0)
    ratio = np.concatenate(ratio)
    nearer = np.minimum(ratio, 1.0 - ratio)
    threshold = np.maximum(nearer - _EPS_RATIO, np.nextafter(cfg.delta0, 1.0))
    # One group per distinct (edge, threshold) pair, from crossings in either
    # role; complex numbers sort by their real parts, then imaginary parts.
    pairs, group = np.unique(np.concatenate([a, b]) + 1j * threshold, return_inverse=True)

    # Crossings read an edge's last entry (-1: none): its starts, edge by edge
    # in layout order, and the range of grid samples that each one owns. On
    # the grid 0, 1, ..., count - 1 the samples start < t < start + total run
    # from floor(start) + 1 up to ceil(start + total), clipped to the grid.
    keys = [e.key for e in layout.edges]
    last = {se.animation.edge.key: n for n, se in enumerate(schedule.edges)}
    listed = np.array([last.get(key, -1) for key in keys], dtype=int)
    starts = [schedule.edges[n].starts if n >= 0 else () for n in listed.tolist()]
    per_edge = np.array([len(s) for s in starts], dtype=int)
    entry = np.repeat(listed, per_edge)
    start = np.array([ts for s in starts for ts in s], dtype=float)
    lo = np.clip(np.floor(start) + 1, 0, count).astype(int)
    hi = np.clip(np.ceil(start + totals[entry]), 0, count).astype(int)
    lo, hi = _owned(entry, start, lo, hi)

    # A probe is one start of one group. A search over its owned range finds
    # each end of its covered range: the first copy of each probe seeks the
    # first sample not growing below the threshold, the second the first
    # retracting sample below it. The answer stays in [low, high].
    group_edge = pairs.real.astype(int)
    per_group = per_edge[group_edge]
    probe = _ranges((per_edge.cumsum() - per_edge)[group_edge], per_group)
    probe_group = np.repeat(np.arange(len(pairs)), per_group)
    row, theta = np.tile(probe, 2), np.tile(pairs.imag[probe_group], 2)
    low, high = lo[row], hi[row]
    # The hint: the fraction x where the ratio passes each threshold, read off
    # a table of the forward easing, and the first sample where a copy's growth
    # or retraction has passed it (the midpoint where x is not finite).
    knots = evaluate_many(cfg.easing, np.linspace(0.0, 1.0, _KNOTS)) * cfg.ratio_span + cfg.delta0
    k = np.clip(np.searchsorted(knots, pairs.imag), 1, _KNOTS - 1)
    with np.errstate(all="ignore"):
        x = (k - 1 + (pairs.imag - knots[k - 1]) / (knots[k] - knots[k - 1])) / (_KNOTS - 1)
        reach = taus[entry[probe]] * x[probe_group]
        hint = np.concatenate(
            [np.ceil(start[probe] + reach), np.floor(start[probe] + totals[entry[probe]] - reach) + 1]
        )
    hint = np.where(np.isfinite(hint), hint, (low + high) // 2)
    hint = np.clip(hint, low, high - 1).astype(int)
    # The first two probes go at hint - 1 and hint, within the bracket: they
    # settle every search whose answer is one of them, and bisection goes on
    # where the hint missed.
    live, rounds = np.flatnonzero(low < high), 0
    while live.size:
        if rounds < 2:
            mid = np.clip(hint[live] + (rounds - 1), low[live], high[live] - 1)
        else:
            mid = (low[live] + high[live]) // 2
        rounds += 1
        growing, retracting, ratios = drawn(entry[row[live]], start[row[live]], mid)
        reached = ratios >= theta[live]
        up = np.where(live < probe.size, ~growing | reached, retracting & ~reached)
        high[live[up]] = mid[up]
        low[live[~up]] = mid[~up] + 1
        live = live[low[live] < high[live]]
    for n, (time_ms, ratio) in sorted(off_curve.items()):
        add("ratio-range", time_ms, (schedule.edges[n].animation.edge.key,), f"ratio {ratio}")

    lag = math.floor(cfg.tau_distinct - _EPS_MS)
    # A window wider than the grid already covers all of it.
    margin = min(max(lag, 0), count)
    # Coverages that only touch share one sample, which is allowed at lag < 0.
    shared = 1 if lag >= 0 else 2
    # Each group's covered ranges, disjoint as the owned ranges are, sorted
    # and merged where they touch. A last range, of no group, ends every
    # search below.
    covered = low[: probe.size] < low[probe.size :]
    g = np.append(probe_group[covered], len(pairs))
    r_lo = np.append(low[: probe.size][covered], 0)
    r_hi = np.append(low[probe.size :][covered], shared)
    order = np.lexsort((r_lo, g))
    g, r_lo, r_hi = g[order], r_lo[order], r_hi[order]
    fresh = np.append(True, (g[1:] != g[:-1]) | (r_lo[1:] != r_hi[:-1]))
    heads, tails = np.flatnonzero(fresh), np.flatnonzero(np.append(fresh[1:], True))
    g, r_lo, r_hi = g[heads], r_lo[heads], r_hi[tails]
    wide = r_hi - r_lo >= shared
    g, r_lo, r_hi = g[wide], r_lo[wide], r_hi[wide]

    # For each crossing and each range of its first edge, the first range of
    # its second edge whose widened end reaches far enough into it (the keys
    # sort ranges by group, then end). Later ranges start later, and so do
    # later ranges of the first edge: the first match is the first clash.
    bounds = np.searchsorted(g, np.arange(len(pairs) + 1))
    group_a, group_b = group[: len(a)], group[len(a) :]
    per_row = np.diff(bounds)[group_a]
    crossing = np.repeat(np.arange(len(a)), per_row)
    ia = _ranges(bounds[group_a], per_row)
    width = count + margin + shared + 1
    ib = np.searchsorted(g * width + r_hi + margin, group_b[crossing] * width + r_lo[ia] + shared)
    clash = (g[ib] == group_b[crossing]) & (r_lo[ib] - margin + shared <= r_hi[ia])
    at = np.maximum(r_lo[ia], r_lo[ib] - margin)[clash]
    clashing, first = np.unique(crossing[clash], return_index=True)
    columns = (a[clashing], b[clashing], px[clashing], py[clashing], at[first])
    for p, q, x, y, i in zip(*(c.tolist() for c in columns)):
        add(
            "crossing-separation",
            float(i),
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
    """:func:`schedule_to_dict`'s document, laid out as ``json.dumps(doc, indent=2)``.

    ``indent`` would make the standard library encode every value in Python,
    so unindented calls to its C encoder write the values and the layout is
    added around them. A non-finite time raises RangeError naming
    its edge: JSON has no such number, and :func:`parse_schedule` refuses it.
    """
    for se in schedule.edges:  # an EdgeAnimation's durations are finite
        if not all(map(math.isfinite, se.starts)):
            source, target = se.animation.edge.key
            raise RangeError(f"non-finite time in schedule edge {source}-{target}")
    if not math.isfinite(schedule.makespan):
        raise RangeError(f"non-finite schedule makespan {schedule.makespan}")
    doc = schedule_to_dict(schedule)
    entries = doc["edges"]
    config = json.dumps(doc["config"], separators=(",\n    ", ": "), allow_nan=False)
    # Strings escape every control character, so "\0" only ever separates
    # items; numbers hold no brackets, so "],\n        [" only separates lists.
    fields = [doc["makespan_ms"]]
    for entry in entries:
        fields += (entry["source"], entry["target"], entry["tau_ms"], entry["total_ms"])
    makespan, *scalars = json.dumps(fields, separators=("\0", ":"), allow_nan=False)[1:-1].split("\0")
    lists = json.dumps(
        [entry["starts_ms"] for entry in entries],
        separators=(",\n        ", ": "),
        allow_nan=False,
    )[2:-2].split("],\n        [")
    items = []
    rows = zip(scalars[::4], scalars[1::4], scalars[2::4], scalars[3::4], lists)
    for source, target, tau, total, starts in rows:
        starts = "[\n        " + starts + "\n      ]" if starts else "[]"
        items.append(
            f'    {{\n      "source": {source},\n      "target": {target},\n'
            f'      "tau_ms": {tau},\n      "total_ms": {total},\n'
            f'      "starts_ms": {starts}\n    }}'
        )
    listed = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
    return (
        f'{{\n  "config": {{\n    {config[1:-1]}\n  }},\n'
        f'  "makespan_ms": {makespan},\n  "edges": {listed}\n}}'
    )


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
