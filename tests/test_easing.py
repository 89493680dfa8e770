import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgemorph import (
    EASE,
    LINEAR,
    AnimationConfig,
    ConfigError,
    EasingSpec,
    RangeError,
    easing_to_string,
    evaluate,
    invert,
    layout_to_json,
    parse_config,
    parse_easing,
)
from edgemorph.cli import main
from edgemorph.easing import (
    CUBIC_KIND,
    _coefficients,
    _cubic,
    _least_slope,
    _solve_monotone_cubic,
    evaluate_many,
    invert_many,
)
from gen_layouts import two_segment_cross


#: A cubic parameterization of the identity, useful for consistency checks.
IDENTITY_BEZIER = EasingSpec(CUBIC_KIND, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)
#: Zero slope at p = 0 on both axes, so a target of 0 takes the masked sweep.
EASE_OUT = EasingSpec(CUBIC_KIND, 0.0, 0.0, 0.58, 1.0)
#: x flat at p = 1 (x2 = 1), y flat at p = 0 (y1 = 0).
EASE_IN = EasingSpec(CUBIC_KIND, 0.42, 0.0, 1.0, 1.0)
#: x steep everywhere (least slope 0.87 at p = 1/2), y flat at both ends.
EASE_IN_OUT = EasingSpec(CUBIC_KIND, 0.42, 0.0, 0.58, 1.0)
#: Both axes flat at both ends.
SMOOTHSTEP = EasingSpec(CUBIC_KIND, 0.0, 0.0, 1.0, 1.0)
#: x slope 3e-7 at p = 0: never below 1e-12, yet inside the margin, so guarded.
NEAR_FLAT = EasingSpec(CUBIC_KIND, 1e-7, 0.0, 0.5, 1.0)
#: Morph times from 1 ms to 5 s, whole and fractional.
GRID_TAUS = sorted({*np.geomspace(1.0, 5000.0, 40).round(3).tolist(), 1.5, 2.001, 437.3})


def de_casteljau(p, points):
    """Independent curve-point oracle by repeated linear interpolation."""
    while len(points) > 1:
        points = [
            ((1 - p) * a[0] + p * b[0], (1 - p) * a[1] + p * b[1])
            for a, b in zip(points, points[1:])
        ]
    return points[0]


EASE_POINTS = [(0.0, 0.0), (0.25, 0.1), (0.25, 1.0), (1.0, 1.0)]


def bezier_xy(spec, p):
    """Point on a cubic curve at parameter p, from the solver's coefficients."""
    x = _cubic(_coefficients(spec.x1, spec.x2), p)
    y = _cubic(_coefficients(spec.y1, spec.y2), p)
    return float(x), float(y)


class TestBezierXY:
    def test_endpoints(self):
        assert bezier_xy(EASE, 0.0) == (0.0, 0.0)
        assert bezier_xy(EASE, 1.0) == (1.0, 1.0)

    def test_midpoint_matches_oracle(self):
        # de Casteljau at p=0.5 gives (0.3125, 0.5375)
        expected = de_casteljau(0.5, EASE_POINTS)
        assert expected == pytest.approx((0.3125, 0.5375), abs=1e-12)
        assert bezier_xy(EASE, 0.5) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_matches_oracle_everywhere(self, p):
        x, y = bezier_xy(EASE, p)
        ox, oy = de_casteljau(p, EASE_POINTS)
        assert x == pytest.approx(ox, abs=1e-12)
        assert y == pytest.approx(oy, abs=1e-12)


class TestEvaluate:
    def test_linear_identity(self):
        assert evaluate(LINEAR, 0.37) == 0.37

    def test_boundaries_exact(self):
        for spec in (LINEAR, EASE, IDENTITY_BEZIER):
            assert evaluate(spec, 0.0) == 0.0
            assert evaluate(spec, 1.0) == 1.0

    def test_ease_at_curve_midpoint(self):
        # x=0.3125 is the curve's p=0.5 point, so progress must be 0.5375.
        assert evaluate(EASE, 0.3125) == pytest.approx(0.5375, abs=1e-7)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            evaluate(EASE, -0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_scalar_matches_vectorized(self, t):
        assert evaluate(EASE, t) == evaluate_many(EASE, np.array([t]))[0]

    @settings(max_examples=30, deadline=None)
    @given(st.builds(partial(EasingSpec, CUBIC_KIND), *[st.floats(0.0, 1.0)] * 4))
    @example(LINEAR)
    @example(EASE)
    @example(EASE_IN)
    @example(EASE_OUT)
    @example(EASE_IN_OUT)
    @example(parse_easing("cubic-bezier:1,0,0,1"))
    @example(SMOOTHSTEP)
    @example(NEAR_FLAT)
    def test_nondecreasing_on_grid(self, spec):
        # The validator bisects over the 1 ms grid samples k + 1 - s after a
        # start s past a grid point: the drawn ratios there must never
        # decrease, for any morph time tau.
        assert np.all(np.diff(evaluate_many(spec, np.linspace(0.0, 1.0, 2001))) >= 0.0)
        offsets = np.array([[0.0], [1e-7], [0.25], [0.5], [0.999999]])
        for tau in GRID_TAUS:
            for fractions in (np.arange(math.ceil(tau)) + 1 - offsets) / tau:
                eased = evaluate_many(spec, fractions[fractions <= 1.0])
                for delta0 in (0.1, 0.25, 0.4):
                    ratios = delta0 + (0.5 - delta0) * eased
                    assert np.all(np.diff(ratios) >= 0.0), (tau, delta0)


class TestInvert:
    def test_linear(self):
        assert invert(LINEAR, 0.8) == 0.8

    def test_boundaries_exact(self):
        for spec in (LINEAR, EASE):
            assert invert(spec, 0.0) == 0.0
            assert invert(spec, 1.0) == 1.0

    def test_ease_at_curve_midpoint(self):
        assert invert(EASE, 0.5375) == pytest.approx(0.3125, abs=1e-7)

    def test_monotone_in_progress(self):
        grid = np.linspace(0.0, 1.0, 2001)
        values = invert_many(EASE, grid)
        assert np.all(np.diff(values) >= 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_scalar_matches_vectorized(self, g):
        assert invert(EASE, g) == invert_many(EASE, np.array([g]))[0]


@pytest.mark.parametrize("spec", [LINEAR, EASE], ids=["linear", "ease"])
def test_round_trip_on_dense_grid(spec):
    grid = np.linspace(0.0, 1.0, 10_000)
    there = evaluate_many(spec, grid)
    back = invert_many(spec, there)
    assert np.max(np.abs(back - grid)) <= 1e-6
    forward = evaluate_many(spec, invert_many(spec, grid))
    assert np.max(np.abs(forward - grid)) <= 1e-6


@pytest.mark.parametrize("spec", [LINEAR, EASE, EASE_IN], ids=["linear", "ease", "ease-in"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_inputs_are_out_of_range(spec, bad):
    # NaN fails every comparison, so the range check must be phrased as
    # "not inside [0, 1]" for NaN to be refused along with the infinities.
    for scalar in (evaluate, invert):
        with pytest.raises(RangeError):
            scalar(spec, bad)
    for many in (evaluate_many, invert_many):
        with pytest.raises(RangeError):
            many(spec, np.array([0.0, 0.5, bad, 1.0]))


def test_identity_bezier_matches_linear():
    grid = np.linspace(0.0, 1.0, 10_000)
    assert np.max(np.abs(evaluate_many(IDENTITY_BEZIER, grid) - grid)) <= 1e-6


def across_axes(solve, read, values):
    """Oracle: solve one axis polynomial, read the other, pin 0 and 1."""
    out = np.clip(
        _cubic(_coefficients(*read), _solve_monotone_cubic(_coefficients(*solve), values)),
        0.0,
        1.0,
    )
    return np.where(values == 0.0, 0.0, np.where(values == 1.0, 1.0, out))


def test_evaluate_and_invert_swap_the_axes():
    rng = np.random.default_rng(3)
    specs = [EASE, IDENTITY_BEZIER, EASE_OUT]
    specs += [EasingSpec(CUBIC_KIND, *rng.random(4)) for _ in range(7)]
    grid = np.concatenate((np.linspace(0.0, 1.0, 4097), rng.random(4096)))
    assert np.array_equal(evaluate_many(LINEAR, grid), grid)
    assert np.array_equal(invert_many(LINEAR, grid), grid)
    for spec in specs:
        x, y = (spec.x1, spec.x2), (spec.y1, spec.y2)
        assert np.array_equal(evaluate_many(spec, grid), across_axes(x, y, grid))
        assert np.array_equal(invert_many(spec, grid), across_axes(y, x, grid))


def masked_newton_solve(coeffs, targets):
    """The solver before its trim: every sweep masks and records its step."""
    a, b, c = coeffs
    t = np.asarray(targets, dtype=float)
    p = np.clip(t, 0.0, 1.0)
    last_step = np.full(t.shape, np.inf)
    for _ in range(8):
        residual = ((a * p + b) * p + c) * p - t
        deriv = (3.0 * a * p + 2.0 * b) * p + c
        safe = np.abs(deriv) > 1e-12
        step = np.where(safe, residual / np.where(safe, deriv, 1.0), np.inf)
        new_p = np.clip(p - np.where(np.isfinite(step), step, 0.0), 0.0, 1.0)
        last_step = np.where(np.isfinite(step), np.abs(new_p - p), np.inf)
        p = new_p
    residual = ((a * p + b) * p + c) * p - t
    unsettled = (np.abs(residual) > 1e-9) | (last_step > 1e-9)
    if np.any(unsettled):
        tt = t[unsettled]
        lo = np.zeros_like(tt)
        hi = np.ones_like(tt)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            below = ((a * mid + b) * mid + c) * mid < tt
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        p[unsettled] = 0.5 * (lo + hi)
    return p


@pytest.mark.parametrize(
    "spec", [EASE, IDENTITY_BEZIER, EASE_OUT, EASE_IN, EASE_IN_OUT, SMOOTHSTEP, NEAR_FLAT]
)
def test_newton_trim_is_bit_identical(spec):
    rng = np.random.default_rng(20)
    targets = np.concatenate(([0.0, 1.0], rng.random(100_000)))
    # Out-of-range and NaN targets are refused by the public callers but
    # still reach the solver through NaN time fractions; they must not drift.
    stray = np.array([np.nan, np.inf, -np.inf, 2.0, -1.0, 1e300])
    for coeffs in (_coefficients(spec.x1, spec.x2), _coefficients(spec.y1, spec.y2)):
        assert np.array_equal(
            _solve_monotone_cubic(coeffs, targets), masked_newton_solve(coeffs, targets)
        )
        assert np.array_equal(
            _solve_monotone_cubic(coeffs, targets[2:]),
            masked_newton_solve(coeffs, targets[2:]),
        )
        assert np.array_equal(
            _solve_monotone_cubic(coeffs, stray),
            masked_newton_solve(coeffs, stray),
            equal_nan=True,
        )


@pytest.mark.parametrize(
    "spec, x_guarded, y_guarded",
    [
        (EASE, False, True),
        (IDENTITY_BEZIER, False, False),
        (EASE_OUT, True, True),
        (EASE_IN, True, True),
        (EASE_IN_OUT, False, True),
        (SMOOTHSTEP, True, True),
        (NEAR_FLAT, True, True),
    ],
    ids=["ease", "identity", "ease-out", "ease-in", "ease-in-out", "smoothstep", "near-flat"],
)
def test_slope_guard_runs_only_where_the_slope_can_vanish(monkeypatch, spec, x_guarded, y_guarded):
    # The specs of test_newton_trim_is_bit_identical cover both branches. Inside
    # the solver only the guard calls np.copyto.
    copyto, calls = np.copyto, []
    monkeypatch.setattr(np, "copyto", lambda *args, **kw: calls.append(args) or copyto(*args, **kw))
    for (c1, c2), guarded in (((spec.x1, spec.x2), x_guarded), ((spec.y1, spec.y2), y_guarded)):
        calls.clear()
        _solve_monotone_cubic(_coefficients(c1, c2), np.linspace(0.0, 1.0, 101))
        assert bool(calls) == guarded


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_least_slope_never_exceeds_the_evaluated_slope(x1, x2):
    # Up to rounding (about 1e-16 here), far below the guard's 1e-6 margin.
    a, b, c = _coefficients(x1, x2)
    grid = np.linspace(0.0, 1.0, 100_000)
    assert _least_slope((a, b, c)) <= np.min((3.0 * a * grid + 2.0 * b) * grid + c) + 1e-12


class TestInputContract:
    SPECS = [LINEAR, EASE, EASE_IN]
    IDS = ["linear", "ease", "ease-in"]

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    @pytest.mark.parametrize("many", [evaluate_many, invert_many])
    def test_empty_input_gives_empty_floats(self, spec, many):
        for empty in ([], np.array([]), np.array([], dtype=int)):
            out = many(spec, empty)
            assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    @pytest.mark.parametrize("many", [evaluate_many, invert_many])
    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0**-52], ids=["below", "above"])
    def test_nearest_values_outside_are_refused(self, spec, many, bad):
        # Non-finite values: test_non_finite_inputs_are_out_of_range.
        for values in ([bad], [0.0, 0.5, bad, 1.0]):
            with pytest.raises(RangeError):
                many(spec, np.array(values))

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    @pytest.mark.parametrize("many", [evaluate_many, invert_many])
    def test_ends_map_exactly(self, spec, many):
        out = many(spec, np.array([0.0, 1.0, 0.5, 1.0, 0.0]))
        assert out[[0, 1, 3, 4]].tolist() == [0.0, 1.0, 1.0, 0.0]
        if not spec.is_linear:
            # The cubic writes the ends, so a negative zero comes out as +0.0.
            assert not np.signbit(many(spec, np.array([-0.0]))[0])

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    @pytest.mark.parametrize("many", [evaluate_many, invert_many])
    def test_callers_array_is_left_alone(self, spec, many):
        values = np.concatenate(([0.0, 1.0], np.random.default_rng(4).random(1000)))
        before = values.copy()
        out = many(spec, values)
        assert np.array_equal(values, before)
        assert not np.shares_memory(out, values)

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    @pytest.mark.parametrize("many", [evaluate_many, invert_many])
    @pytest.mark.parametrize(
        "value", [0.5, np.array(0.5), 0.0, 1.0], ids=["float", "0-d", "zero", "one"]
    )
    def test_zero_d_input_gives_zero_d_result(self, spec, many, value):
        out = many(spec, value)
        assert isinstance(out, np.ndarray) and out.ndim == 0 and out.dtype == np.float64
        assert out.tobytes() == many(spec, np.array([float(value)])).tobytes()
        scalar = evaluate if many is evaluate_many else invert
        assert np.float64(scalar(spec, float(value))).tobytes() == out.tobytes()


#: Control values at and next to the ends of [0, 1], smallest subnormal included.
EXTREME_CONTROLS = (0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0)
#: The nearest values outside [0, 1], and the non-finite ones.
OUTSIDE_CONTROLS = (float("nan"), float("inf"), float("-inf"), -1e-300, 1.0000000000000002)


def assert_valid_curve(x1, y1, x2, y2):
    """A curve with all controls in [0, 1] is accepted and strictly increases."""
    spec = EasingSpec(CUBIC_KIND, x1, y1, x2, y2)
    assert AnimationConfig(sigma_a=100.0, easing=spec).easing == spec
    values = evaluate_many(spec, np.linspace(0.0, 1.0, 10_000))
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) > 0.0), spec


class TestControlBox:
    """All four controls in [0, 1] make a strictly increasing curve, so that
    box is the whole acceptance rule (the proof is in :mod:`edgemorph.easing`)."""

    def test_box_corners(self):
        for controls in itertools.product((0.0, 1.0), repeat=4):
            assert_valid_curve(*controls)

    def test_extreme_controls(self):
        for controls in itertools.product(EXTREME_CONTROLS, repeat=4):
            assert_valid_curve(*controls)

    @settings(max_examples=60, deadline=None)
    @given(*[st.floats(min_value=0.0, max_value=1.0)] * 4)
    def test_any_controls_in_the_box(self, x1, y1, x2, y2):
        assert_valid_curve(x1, y1, x2, y2)

    @pytest.mark.parametrize("name", ["y1", "y2"])
    @pytest.mark.parametrize("bad", OUTSIDE_CONTROLS, ids=repr)
    def test_y_outside_is_refused_everywhere(self, tmp_path, capsys, name, bad):
        controls = {"x1": 0.3, "y1": 0.2, "x2": 0.4, "y2": 0.8, name: bad}
        text = f"easing control {name}={bad} outside [0, 1]"
        spec = EasingSpec(CUBIC_KIND, **controls)
        with pytest.raises(ConfigError) as refused:
            AnimationConfig(sigma_a=100.0, easing=spec)
        assert str(refused.value) == text
        curve = "cubic-bezier:" + ",".join(str(v) for v in controls.values())
        with pytest.raises(ConfigError) as refused:
            parse_config(f'{{"easing": "{curve}"}}')
        assert str(refused.value) == text
        layout = tmp_path / "layout.json"
        layout.write_text(layout_to_json(two_segment_cross()), encoding="utf-8")
        out = tmp_path / "schedule.json"
        assert main(["schedule", str(layout), "--easing", curve, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()


class TestSpecParsing:
    def test_named_forms(self):
        assert parse_easing("linear") is LINEAR
        assert parse_easing("ease") == EASE

    def test_cubic_form(self):
        spec = parse_easing("cubic-bezier:0.25,0.1,0.25,1")
        assert spec == EASE

    def test_round_trip_strings(self):
        for spec in (LINEAR, EASE, EasingSpec(CUBIC_KIND, 0.4, 0.2, 0.6, 0.9)):
            assert parse_easing(easing_to_string(spec)) == spec

    def test_control_x_out_of_range(self):
        with pytest.raises(RangeError):
            EasingSpec(CUBIC_KIND, -0.2, 0.0, 0.5, 1.0)

    @settings(max_examples=25)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=2.0),
    )
    def test_string_round_trip_any_controls(self, x1, y1, x2, y2):
        spec = EasingSpec(CUBIC_KIND, x1, y1, x2, y2)
        assert parse_easing(easing_to_string(spec)) == spec
