"""Easing functions: strictly monotone maps from elapsed-time fraction to progress.

Two families are supported. ``linear`` is the identity. ``cubic-bezier`` is the
web-style timing curve through (0,0) and (1,1) with two inner control points;
its x coordinate is the time fraction and its y coordinate the progress, so
evaluating it as a function requires solving x(p) = t numerically. The solver
is a safeguarded Newton iteration that falls back to bisection, the same
strategy browsers use for CSS timing functions. Its guard zeroes steps whose
slope is NaN or within 1e-12 of 0. An axis whose least slope on [0, 1] (an end
or the inner vertex) is far above that cannot trip it, so it is skipped there
bit for bit: ``ease`` skips it solving x; ``ease-in``, flat at 1, keeps it.

Evaluation and inversion are exact at the interval boundaries: 0 maps to 0 and
1 maps to 1 without touching the solver.

A cubic is valid by construction, so no curve is sampled before use: with all
four inner controls in [0, 1] (x here, y in the animation config) both axes
strictly increase. An axis's slope over 3 is linear in its two controls, and at
the corners of that box it is p^2, (1 - 2p)^2, 2p(1 - p) and (1 - p)^2, so it
is never negative and vanishes only at isolated p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeError

LINEAR_KIND = "linear"
CUBIC_KIND = "cubic-bezier"

# Newton acceptance: both the residual and the last step must be this small,
# otherwise the element is re-solved by bisection.
_NEWTON_TOL = 1e-9
_NEWTON_ITERATIONS = 8
_BISECTION_ITERATIONS = 48
_SLOPE_MARGIN = 1e-6  # least slope, per unit of coefficient size, that skips the guard


@dataclass(frozen=True)
class EasingSpec:
    """Description of an easing curve.

    For the cubic kind the inner control points are (x1, y1) and (x2, y2);
    x1 and x2 must lie in [0, 1] so the curve is a function of the time
    fraction. y1 and y2 are checked by :class:`~edgemorph.kinematics.AnimationConfig`,
    which keeps them in [0, 1]; inside that box the curve strictly increases.
    """

    kind: str
    x1: float = 0.0
    y1: float = 0.0
    x2: float = 1.0
    y2: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR_KIND, CUBIC_KIND):
            raise ConfigError(f"unknown easing kind {self.kind!r}")
        if self.kind == CUBIC_KIND:
            for name, value in (("x1", self.x1), ("x2", self.x2)):
                if not 0.0 <= value <= 1.0:
                    raise RangeError(f"easing control {name}={value} outside [0, 1]")

    @property
    def is_linear(self) -> bool:
        return self.kind == LINEAR_KIND


LINEAR = EasingSpec(LINEAR_KIND)
#: The standard web easing curve, cubic-bezier(0.25, 0.1, 0.25, 1).
EASE = EasingSpec(CUBIC_KIND, 0.25, 0.1, 0.25, 1.0)


def _coefficients(c1: float, c2: float) -> tuple[float, float, float]:
    """(a, b, c) of one axis, ((a p + b) p + c) p, from its two inner controls."""
    c = 3.0 * c1
    b = 3.0 * (c2 - c1) - c
    return (1.0 - c - b, b, c)


def _cubic(coeffs: tuple[float, float, float], p, out=None):
    a, b, c = coeffs
    out = np.multiply(p, a, out=out)
    out += b
    out *= p
    out += c
    out *= p
    return out


def _least_slope(coeffs: tuple[float, float, float]) -> float:
    """Least of the slope 3 a p^2 + 2 b p + c on [0, 1]: an end, or the inner vertex."""
    a, b, c = coeffs
    vertex = c - b * b / (3.0 * a) if 0.0 < -b < 3.0 * a else np.inf
    return min(c, 3.0 * a + 2.0 * b + c, vertex)


def _solve_monotone_cubic(coeffs: tuple[float, float, float], targets) -> np.ndarray:
    """Solve ((a p + b) p + c) p = target on [0, 1], element-wise.

    Newton from p = target, accepted only when both the residual and the last
    step are below 1e-9; remaining elements fall back to bisection, which is
    safe because the axis polynomial is monotone on [0, 1].
    """
    a, b, c = coeffs
    t = np.asarray(targets, dtype=float)
    p = np.clip(t, 0.0, 1.0)
    guard = not _least_slope(coeffs) > _SLOPE_MARGIN * (1.0 + abs(a) + abs(b) + abs(c))
    # In place, with the operations and order of the expressions in comments.
    prev, step, deriv = (np.empty_like(p) for _ in range(3))
    safe, unsafe = np.empty(p.shape, dtype=bool), np.empty(p.shape, dtype=bool)
    with np.errstate(all="ignore"):  # steps of unsafe slopes are discarded
        for _ in range(_NEWTON_ITERATIONS):
            _cubic(coeffs, p, out=step)  # (((a * p + b) * p + c) * p - t) / deriv
            step -= t
            np.multiply(p, 3.0 * a, out=deriv)  # (3.0 * a * p + 2.0 * b) * p + c
            deriv += 2.0 * b
            deriv *= p
            deriv += c
            np.divide(step, deriv, out=step)
            if guard:  # prev is free until the swap below
                np.greater(np.abs(deriv, out=prev), 1e-12, out=safe)
                np.copyto(step, 0.0, where=np.logical_not(safe, out=unsafe))  # flat or NaN
            p, prev = prev, p  # p, prev = clip(p - step, 0, 1), p
            np.subtract(prev, step, out=p)
            if not 0.0 <= p.min(initial=0.0) <= p.max(initial=1.0) <= 1.0:  # cheaper than clip
                np.clip(p, 0.0, 1.0, out=p)
    # Acceptance looks at the final step only; a masked or NaN step never settles.
    residual = _cubic(coeffs, p, out=deriv)
    residual -= t
    np.abs(np.subtract(p, prev, out=step), out=step)
    if guard:
        np.copyto(step, np.inf, where=unsafe)
    unsettled = np.greater(np.abs(residual, out=residual), _NEWTON_TOL, out=safe)
    unsettled |= np.logical_not(np.less_equal(step, _NEWTON_TOL, out=unsafe), out=unsafe)
    if np.any(unsettled):
        tt = t[unsettled]
        lo = np.zeros_like(tt)
        hi = np.ones_like(tt)
        for _ in range(_BISECTION_ITERATIONS):
            mid = 0.5 * (lo + hi)
            below = ((a * mid + b) * mid + c) * mid < tt
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        p[unsettled] = 0.5 * (lo + hi)
    return p


def _across_curve(spec: EasingSpec, values, inverse: bool, what: str) -> np.ndarray:
    """Map values in [0, 1] across the curve: x to y, or y to x when inverse."""
    v = np.asarray(values, dtype=float)
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails both
        raise RangeError(f"{what} outside [0, 1]")
    if spec.is_linear:
        return v.copy()
    x, y = _coefficients(spec.x1, spec.x2), _coefficients(spec.y1, spec.y2)
    solve, read = (y, x) if inverse else (x, y)
    out = _cubic(read, _solve_monotone_cubic(solve, np.atleast_1d(v))).reshape(v.shape)
    np.clip(out, 0.0, 1.0, out=out)
    np.copyto(out, 0.0, where=v == 0.0)  # not v itself: -0.0 maps to 0.0
    np.copyto(out, 1.0, where=v == 1.0)
    return out


def evaluate_many(spec: EasingSpec, time_fracs) -> np.ndarray:
    """Vectorized progress values for time fractions in [0, 1].

    Interior values are clamped to [0, 1]; 0 and 1 map to exactly 0 and 1.
    """
    return _across_curve(spec, time_fracs, False, "time fraction")


def evaluate(spec: EasingSpec, time_frac: float) -> float:
    """Progress reached after the given fraction of the morph time."""
    return float(evaluate_many(spec, time_frac))


def invert_many(spec: EasingSpec, progresses) -> np.ndarray:
    """Vectorized time fractions at which each progress value is reached.

    Only meaningful for accepted (strictly increasing) specs; configurations
    guarantee that before any inversion happens.
    """
    return _across_curve(spec, progresses, True, "progress")


def invert(spec: EasingSpec, progress: float) -> float:
    """Time fraction at which the given progress is reached."""
    return float(invert_many(spec, progress))


def parse_easing(text: str) -> EasingSpec:
    """Parse an easing description: "linear", "ease", or "cubic-bezier:x1,y1,x2,y2"."""
    name = text.strip()
    if name == "linear":
        return LINEAR
    if name == "ease":
        return EASE
    if name.startswith("cubic-bezier:"):
        body = name[len("cubic-bezier:"):]
        parts = body.split(",")
        if len(parts) != 4:
            raise ConfigError(f"cubic-bezier needs 4 numbers, got {body!r}")
        try:
            x1, y1, x2, y2 = (float(s) for s in parts)
        except ValueError as exc:
            raise ConfigError(f"bad cubic-bezier controls {body!r}") from exc
        try:
            return EasingSpec(CUBIC_KIND, x1, y1, x2, y2)
        except RangeError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown easing {text!r}")


def easing_to_string(spec: EasingSpec) -> str:
    """Canonical string form accepted back by :func:`parse_easing`."""
    if spec.is_linear:
        return "linear"
    if spec == EASE:
        return "ease"
    return f"cubic-bezier:{spec.x1!r},{spec.y1!r},{spec.x2!r},{spec.y2!r}"
