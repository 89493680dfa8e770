"""Time evolution of stub length ratios for a single edge animation.

One animation of an edge grows both stubs from the resting ratio to 1/2,
holds the edge fully drawn for a fixed time, then retracts along the
time-mirrored growth curve. The one-way morph time is length-proportional:
each stub tip travels (1/2 - delta0) * edge length at the configured average
tip speed, so the morph time depends only on edge length, never on the easing
curve. All times are real-valued milliseconds; durations are quantized to
microseconds at creation so that serialized schedules (3 decimal places)
round-trip without loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .easing import (
    EASE,
    LINEAR,
    EasingSpec,
    easing_to_string,
    evaluate_many,
    invert,
    parse_easing,
)
from .errors import ConfigError, RangeError
from .graph import EdgeSpec, GraphLayout, edge_length, json_number, json_object


def _microseconds(value: float) -> float:
    us = value * 1000.0
    if not math.isfinite(us):
        raise RangeError(f"{value} ms does not fit the microsecond grid")
    return us


def quantize_ms(value: float) -> float:
    """Round a millisecond value to the microsecond grid; RangeError if it overflows."""
    return round(_microseconds(value)) / 1000.0


def ceil_ms(value: float) -> float:
    """Smallest microsecond-grid value at or above the input; RangeError if it overflows."""
    return math.ceil(_microseconds(value)) / 1000.0


@dataclass(frozen=True)
class AnimationConfig:
    """Animation parameters shared by every edge of a drawing.

    sigma_a       average stub tip speed in px/s
    delta0        resting stub length ratio, in (0, 1/2)
    tau_half      hold time fully drawn, ms
    tau_distinct  minimum separation between animations and between two
                  edges' visits to a shared crossing point, ms
    easing        progress curve; a cubic's y1 and y2 must lie in [0, 1],
                  which keeps it strictly increasing (see edgemorph.easing)
    fps           frame rate used by rendering and export
    horizon       optional schedule length bound in ms; enables repeated
                  animations of each edge
    """

    sigma_a: float
    delta0: float = 0.25
    tau_half: float = 100.0
    tau_distinct: float = 50.0
    easing: EasingSpec = LINEAR
    fps: float = 30.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        for name in ("sigma_a", "delta0", "tau_half", "tau_distinct", "fps", "horizon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.sigma_a > 0.0:
            raise ConfigError(f"sigma_a must be positive, got {self.sigma_a}")
        if not 0.0 < self.delta0 < 0.5:
            raise ConfigError(f"delta0 must be in (0, 1/2), got {self.delta0}")
        if self.tau_half < 0.0:
            raise ConfigError(f"tau_half must be >= 0, got {self.tau_half}")
        if self.tau_distinct < 0.0:
            raise ConfigError(f"tau_distinct must be >= 0, got {self.tau_distinct}")
        if not self.fps > 0.0:
            raise ConfigError(f"fps must be positive, got {self.fps}")
        if not math.isfinite(1000.0 / self.fps):
            raise ConfigError(f"fps {self.fps} gives an infinite frame period")
        if self.horizon is not None and self.horizon <= 0.0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not self.easing.is_linear:
            for name, value in (("y1", self.easing.y1), ("y2", self.easing.y2)):
                if not 0.0 <= value <= 1.0:
                    raise ConfigError(
                        f"easing control {name}={value} outside [0, 1]"
                    )

    @property
    def ratio_span(self) -> float:
        return 0.5 - self.delta0


#: The four stock parameter sets: slow/fast tip speed crossed with linear/ease.
PRESETS: dict[str, AnimationConfig] = {
    "slowlin": AnimationConfig(sigma_a=100.0, easing=LINEAR),
    "sloweas": AnimationConfig(sigma_a=100.0, easing=EASE),
    "fastlin": AnimationConfig(sigma_a=200.0, easing=LINEAR),
    "fasteas": AnimationConfig(sigma_a=200.0, easing=EASE),
}


@dataclass(frozen=True)
class EdgeAnimation:
    """Durations of one edge's animation: one-way morph time and total."""

    edge: EdgeSpec
    tau: float    # one-way morph duration, ms
    total: float  # 2 * tau + hold, ms

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ConfigError(f"morph duration must be positive, got {self.tau}")


def edge_animation(
    edge: EdgeSpec | tuple[str, str], layout: GraphLayout, cfg: AnimationConfig
) -> EdgeAnimation:
    """Durations for one edge: tip travel distance over average tip speed."""
    length = edge_length(layout, edge)
    if isinstance(edge, tuple):
        edge = EdgeSpec(*edge)
    tau = quantize_ms(cfg.ratio_span * length / cfg.sigma_a * 1000.0)
    tau = max(tau, 0.001)  # keep sub-microsecond edges representable
    return EdgeAnimation(edge=edge, tau=tau, total=2.0 * tau + cfg.tau_half)


def animated_cells(
    times: np.ndarray,
    starts: Sequence[float],
    tau: float | np.ndarray,
    total: float | np.ndarray,
    hold: float,
    offsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one stub-ratio kernel: which cells of a time grid animate, and how.

    A start animates each time t of the ascending grid with
    start < t < start + total, compared on absolute times. With
    rel = t - start the edge grows while rel < tau, is fully drawn while
    rel <= tau + hold, then retracts. tau and total are scalars or one per
    start. A cell is a grid index plus its start's offset, if given, and the
    start listed later owns a cell that two spans share. Returns the
    animated cells, the mask of those still easing and their time fractions.
    """
    s = np.asarray(starts, dtype=float)
    tau, total = np.asarray(tau, dtype=float), np.asarray(total, dtype=float)
    lo = times.searchsorted(s, side="right")
    hi = times.searchsorted(s + total, side="left")
    lengths = np.maximum(hi - lo, 0)
    idx = np.arange(lengths.sum()) + (lo - lengths.cumsum() + lengths).repeat(lengths)
    cells = idx if offsets is None else idx + offsets.repeat(lengths)
    ts = s.repeat(lengths)
    if tau.ndim:
        tau, total = tau.repeat(lengths), total.repeat(lengths)
    if (cells[1:] <= cells[:-1]).any():
        # Overlapping spans: keep each cell's last writer in start order.
        order = np.argsort(cells, kind="stable")
        keep = order[np.append(cells[order][1:] != cells[order][:-1], True)]
        cells, idx, ts = cells[keep], idx[keep], ts[keep]
        if tau.ndim:
            tau, total = tau[keep], total[keep]
    rel = times[idx] - ts
    growing = rel < tau
    eased = growing | (rel > tau + hold)
    fractions = np.where(growing, rel, total - rel)[eased]
    return cells, eased, fractions / (tau[eased] if tau.ndim else tau)


def sample_times(times: Sequence[float]) -> np.ndarray:
    """Times as a float array; RangeError unless they are finite and ascending."""
    t = np.asarray(times, dtype=float)
    if not (np.isfinite(t).all() and (t[1:] >= t[:-1]).all()):
        raise RangeError("sample times must be finite and ascending")
    return t


def stub_ratio_matrix(
    cfg: AnimationConfig,
    edges: Sequence[tuple[EdgeAnimation, Sequence[float]] | None],
    times: Sequence[float],
) -> np.ndarray:
    """Stub ratios of many edges at many absolute times, as an edges x times array.

    Each entry of ``edges`` is an animation with its start times, or None for
    an edge that never animates. All starts go through one call of
    :func:`animated_cells`, row r at cell offset r * len(times), and all eased
    fractions through one easing evaluation; every other cell rests at delta0.
    Times must be finite and ascending (equal neighbours are fine); any other
    list raises RangeError, since the kernel's search would misplace them.
    """
    t = sample_times(times)
    out = np.full((len(edges), t.size), cfg.delta0)
    rows = [(row, *entry) for row, entry in enumerate(edges) if entry is not None]
    counts = [len(starts) for _, _, starts in rows]
    cells, eased, fractions = animated_cells(
        t,
        [ts for _, _, starts in rows for ts in starts],
        np.repeat([anim.tau for _, anim, _ in rows], counts),
        np.repeat([anim.total for _, anim, _ in rows], counts),
        cfg.tau_half,
        np.repeat([row * t.size for row, _, _ in rows], counts).astype(int),
    )
    flat = out.reshape(-1)
    flat[cells] = 0.5
    flat[cells[eased]] = cfg.delta0 + cfg.ratio_span * evaluate_many(cfg.easing, fractions)
    return out


def occupancy_interval(
    anim: EdgeAnimation,
    cfg: AnimationConfig,
    point_ratio: float,
    start_ts: float,
) -> tuple[float, float]:
    """Closed time interval during which a point on the edge is covered.

    The point is given as its along-edge ratio. It is covered once the nearer
    stub tip reaches it, stays covered through full extension and the hold,
    and is released at the mirrored time during retraction. Points within the
    resting ratio of an endpoint are always covered, so they are out of range
    here.
    """
    if not cfg.delta0 < point_ratio < 1.0 - cfg.delta0:
        raise RangeError(
            f"point ratio {point_ratio} outside ({cfg.delta0}, {1.0 - cfg.delta0})"
        )
    nearer = min(point_ratio, 1.0 - point_ratio)
    reach = anim.tau * invert(cfg.easing, (nearer - cfg.delta0) / cfg.ratio_span)
    return (start_ts + reach, start_ts + anim.total - reach)


def config_to_dict(cfg: AnimationConfig) -> dict:
    """JSON-ready form of a configuration."""
    return {
        "sigma_a_px_s": cfg.sigma_a,
        "delta0": cfg.delta0,
        "tau_half_ms": cfg.tau_half,
        "tau_distinct_ms": cfg.tau_distinct,
        "easing": easing_to_string(cfg.easing),
        "fps": cfg.fps,
        "horizon_ms": cfg.horizon,
    }


_CONFIG_KEYS = frozenset(config_to_dict(PRESETS["slowlin"]))


def config_from_dict(doc: dict) -> AnimationConfig:
    """Configuration from its JSON form; every value but the easing is a JSON number."""
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    easing = doc.get("easing", "linear")
    if not isinstance(easing, str):
        raise ConfigError("easing must be a string")
    easing_spec = parse_easing(easing)
    try:
        return AnimationConfig(
            sigma_a=json_number(doc.get("sigma_a_px_s", 100.0)),
            delta0=json_number(doc.get("delta0", 0.25)),
            tau_half=json_number(doc.get("tau_half_ms", 100.0)),
            tau_distinct=json_number(doc.get("tau_distinct_ms", 50.0)),
            easing=easing_spec,
            fps=json_number(doc.get("fps", 30.0)),
            horizon=(
                None if doc.get("horizon_ms") is None else json_number(doc["horizon_ms"])
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def parse_config(raw: bytes | str) -> AnimationConfig:
    """Parse a configuration document; absent keys fall back to the defaults."""
    return config_from_dict(json_object(raw, "config"))
