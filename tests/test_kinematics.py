import json
import math
import random

import numpy as np
import pytest

from edgemorph import (
    EASE,
    LINEAR,
    PRESETS,
    AnimationConfig,
    ConfigError,
    EasingSpec,
    GraphLayout,
    EdgeSpec,
    NodeSpec,
    RangeError,
    config_to_dict,
    edge_animation,
    occupancy_interval,
    parse_config,
)
from edgemorph.easing import CUBIC_KIND
from edgemorph.kinematics import ceil_ms, config_from_dict, quantize_ms, stub_ratio_matrix
from edgemorph.scheduling import sample_ratio_series

SLOWLIN = PRESETS["slowlin"]
SLOWEAS = PRESETS["sloweas"]


def line_layout(length):
    return GraphLayout(
        (NodeSpec("a", 0.0, 0.0), NodeSpec("b", float(length), 0.0)),
        (EdgeSpec("a", "b"),),
    )


def anim_for(length, cfg):
    return edge_animation(("a", "b"), line_layout(length), cfg)


def stub_ratio_at(anim, cfg, t_rel):
    """Stub ratio at a time offset from the start of a single animation."""
    return float(stub_ratio_matrix(cfg, [(anim, (0.0,))], [t_rel])[0, 0])


def time_to_ratio(anim, cfg, ratio):
    """Offset from the start at which the growing stubs reach a ratio."""
    return occupancy_interval(anim, cfg, ratio, 0.0)[0]


class TestDurations:
    def test_slow_400px(self):
        anim = anim_for(400, SLOWLIN)
        assert anim.tau == 1000.0
        assert anim.total == 2100.0

    def test_fast_halves_tau(self):
        assert anim_for(400, PRESETS["fastlin"]).tau == 500.0

    def test_tau_independent_of_easing(self):
        assert anim_for(313, SLOWLIN).tau == anim_for(313, SLOWEAS).tau

    @pytest.mark.parametrize("easing", [LINEAR, EASE], ids=["linear", "ease"])
    def test_average_tip_speed(self, easing):
        # Fine-timestep simulation: summed tip movement over morph time equals
        # the configured speed, up to the microsecond quantization of tau.
        rng = random.Random(99)
        cfg = AnimationConfig(sigma_a=137.0, easing=easing)
        for _ in range(100):
            length = rng.uniform(40.0, 900.0)
            anim = anim_for(length, cfg)
            times = np.append(np.arange(0.0, anim.tau, 0.1), anim.tau)
            ratios = sample_ratio_series(anim, (0.0,), cfg, times)
            tip_positions = ratios * length
            traveled = float(np.sum(np.abs(np.diff(tip_positions))))
            speed = traveled / (anim.tau / 1000.0)
            assert speed == pytest.approx(cfg.sigma_a, rel=1e-4)


class TestStubRatioAt:
    def test_hold_phase(self):
        anim = anim_for(400, SLOWLIN)
        assert stub_ratio_at(anim, SLOWLIN, anim.tau + SLOWLIN.tau_half / 2) == 0.5

    def test_before_start(self):
        anim = anim_for(400, SLOWLIN)
        assert stub_ratio_at(anim, SLOWLIN, -5.0) == 0.25

    def test_after_end(self):
        anim = anim_for(400, SLOWLIN)
        assert stub_ratio_at(anim, SLOWLIN, anim.total + 1.0) == 0.25

    def test_linear_midgrowth(self):
        anim = anim_for(400, SLOWLIN)
        assert stub_ratio_at(anim, SLOWLIN, 500.0) == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("cfg", [SLOWLIN, SLOWEAS], ids=["linear", "ease"])
    def test_mirror_symmetry(self, cfg):
        anim = anim_for(350, cfg)
        center = anim.tau + cfg.tau_half / 2.0
        for x in np.linspace(0.0, center + 50.0, 200):
            left = stub_ratio_at(anim, cfg, center - x)
            right = stub_ratio_at(anim, cfg, center + x)
            assert left == pytest.approx(right, abs=1e-9)

    @pytest.mark.parametrize("cfg", [SLOWLIN, SLOWEAS], ids=["linear", "ease"])
    def test_continuity(self, cfg):
        anim = anim_for(350, cfg)
        times = np.arange(-5.0, anim.total + 5.0, 0.1)
        ratios = sample_ratio_series(anim, (0.0,), cfg, times)
        assert np.max(np.abs(np.diff(ratios))) < 1e-3

    def test_series_matches_scalar(self):
        anim = anim_for(275, SLOWEAS)
        times = np.linspace(-10.0, anim.total + 10.0, 777)
        series = sample_ratio_series(anim, (0.0,), SLOWEAS, times)
        for t, value in zip(times, series):
            assert value == pytest.approx(stub_ratio_at(anim, SLOWEAS, t), abs=1e-12)


class TestTimeToRatio:
    def test_full_extension_boundary(self):
        anim = anim_for(400, SLOWLIN)
        assert time_to_ratio(anim, SLOWLIN, 0.5) == anim.tau

    def test_linear_midpoint(self):
        anim = anim_for(400, SLOWLIN)
        assert time_to_ratio(anim, SLOWLIN, 0.375) == pytest.approx(500.0, abs=1e-9)

    def test_ease_against_dense_forward_sampling(self):
        anim = anim_for(400, SLOWEAS)
        offset = time_to_ratio(anim, SLOWEAS, 0.375)
        # Oracle: first fine-grid time whose ratio reaches the target.
        times = np.arange(0.0, anim.tau + 0.005, 0.01)
        ratios = sample_ratio_series(anim, (0.0,), SLOWEAS, times)
        first = float(times[np.argmax(ratios >= 0.375)])
        assert offset == pytest.approx(first, abs=0.05)

    def test_round_trip(self):
        for cfg in (SLOWLIN, SLOWEAS):
            anim = anim_for(321, cfg)
            for ratio in np.linspace(0.2501, 0.5, 40):
                offset = time_to_ratio(anim, cfg, float(ratio))
                assert stub_ratio_at(anim, cfg, offset) == pytest.approx(
                    float(ratio), abs=1e-6
                )

    def test_out_of_range(self):
        anim = anim_for(400, SLOWLIN)
        with pytest.raises(RangeError):
            time_to_ratio(anim, SLOWLIN, 0.25)
        with pytest.raises(RangeError):
            time_to_ratio(anim, SLOWLIN, 0.75)


class TestOccupancyInterval:
    def test_midpoint_covered_only_while_full(self):
        anim = anim_for(400, SLOWLIN)
        assert occupancy_interval(anim, SLOWLIN, 0.5, 0.0) == (1000.0, 1100.0)

    def test_linear_example(self):
        anim = anim_for(400, SLOWLIN)
        assert occupancy_interval(anim, SLOWLIN, 0.375, 0.0) == pytest.approx(
            (500.0, 1600.0), abs=1e-9
        )

    def test_ease_interval_contains_linear_near_full(self):
        # Close to full extension the ease curve reaches the point earlier
        # and leaves later, so its interval strictly contains the linear one.
        lin = anim_for(400, SLOWLIN)
        eas = anim_for(400, SLOWEAS)
        lin_lo, lin_hi = occupancy_interval(lin, SLOWLIN, 0.55, 0.0)
        eas_lo, eas_hi = occupancy_interval(eas, SLOWEAS, 0.55, 0.0)
        assert eas_lo < lin_lo and eas_hi > lin_hi

    def test_start_offset(self):
        anim = anim_for(400, SLOWLIN)
        lo, hi = occupancy_interval(anim, SLOWLIN, 0.375, 250.0)
        assert (lo, hi) == pytest.approx((750.0, 1850.0), abs=1e-9)

    def test_out_of_range(self):
        anim = anim_for(400, SLOWLIN)
        for bad in (0.25, 0.75, 0.1, 0.9):
            with pytest.raises(RangeError):
                occupancy_interval(anim, SLOWLIN, bad, 0.0)

    @pytest.mark.parametrize("cfg", [SLOWLIN, SLOWEAS], ids=["linear", "ease"])
    def test_against_sampling_oracle(self, cfg):
        rng = random.Random(7)
        for _ in range(50):
            length = rng.uniform(60.0, 600.0)
            point_ratio = rng.uniform(0.2501, 0.7499)
            anim = anim_for(length, cfg)
            lo, hi = occupancy_interval(anim, cfg, point_ratio, 0.0)
            nearer = min(point_ratio, 1.0 - point_ratio)
            times = np.arange(-1.0, anim.total + 1.0, 0.1)
            covered = sample_ratio_series(anim, (0.0,), cfg, times) >= nearer - 1e-12
            assert np.any(covered)
            first = float(times[np.argmax(covered)])
            last = float(times[len(covered) - 1 - np.argmax(covered[::-1])])
            assert abs(first - lo) <= 1.0
            assert abs(last - hi) <= 1.0

    @pytest.mark.parametrize("cfg", [SLOWLIN, SLOWEAS], ids=["linear", "ease"])
    def test_interval_shrinks_as_point_centers(self, cfg):
        anim = anim_for(400, cfg)
        previous = None
        for nearer in np.linspace(0.26, 0.5, 30):
            lo, hi = occupancy_interval(anim, cfg, float(nearer), 0.0)
            if previous is not None:
                assert lo > previous[0] and hi < previous[1]
            previous = (lo, hi)


class TestConfig:
    def test_preset_values(self):
        assert SLOWLIN.sigma_a == 100.0
        assert PRESETS["fasteas"].sigma_a == 200.0
        for cfg in PRESETS.values():
            assert cfg.delta0 == 0.25
            assert cfg.tau_half == 100.0
            assert cfg.tau_distinct == 50.0
            assert cfg.fps == 30.0

    def test_parse_defaults(self):
        cfg = parse_config(b'{"sigma_a_px_s": 150}')
        assert cfg.sigma_a == 150.0
        assert cfg.delta0 == 0.25
        assert cfg.tau_half == 100.0
        assert cfg.tau_distinct == 50.0
        assert cfg.fps == 30.0
        assert cfg.horizon is None

    def test_dict_round_trip(self):
        cfg = AnimationConfig(sigma_a=123.0, easing=EASE, horizon=5000.0)
        assert parse_config(json.dumps(config_to_dict(cfg))) == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            AnimationConfig(sigma_a=0.0)
        with pytest.raises(ConfigError):
            AnimationConfig(sigma_a=100.0, delta0=0.5)
        with pytest.raises(ConfigError):
            AnimationConfig(sigma_a=100.0, fps=0.0)

    @pytest.mark.parametrize(
        "field", ["sigma_a", "delta0", "tau_half", "tau_distinct", "fps", "horizon"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            AnimationConfig(**{"sigma_a": 100.0, field: value})

    @pytest.mark.parametrize(
        "doc",
        ['{"tau_distinct_ms": NaN}', '{"fps": Infinity}', '{"horizon_ms": Infinity}'],
    )
    def test_dict_rejects_non_finite_values(self, doc):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(json.loads(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            '{"delta0": "0.25"}',
            '{"fps": true}',
            '{"tau_half_ms": "100"}',
            '{"horizon_ms": false}',
            '{"sigma_a_px_s": [100]}',
            '{"tau_distinct_ms": 1' + "0" * 400 + "}",
        ],
    )
    def test_accepts_only_json_numbers(self, doc):
        with pytest.raises(ConfigError, match="JSON number|does not fit"):
            parse_config(doc)

    def test_rejects_non_monotone_easing(self):
        bad = EasingSpec(CUBIC_KIND, 0.25, 2.0, 0.25, -1.0)
        with pytest.raises(ConfigError):
            AnimationConfig(sigma_a=100.0, easing=bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(b'{"sigma": 5}')


def test_quantize_ms():
    assert quantize_ms(1000.00004) == 1000.0
    assert quantize_ms(1000.0006) == 1000.001
    assert quantize_ms(math.pi) == 3.142


@pytest.mark.parametrize("value", [1e306, -1e306, math.inf, math.nan])
def test_microsecond_grid_overflow_is_range_error(value):
    for round_ms in (quantize_ms, ceil_ms):
        with pytest.raises(RangeError):
            round_ms(value)


def test_unknown_config_keys_are_listed():
    doc = {**config_to_dict(SLOWEAS), "zeta": 1, "alpha": 2}
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['alpha', 'zeta'\]$"):
        config_from_dict(doc)
    assert config_from_dict(config_to_dict(SLOWEAS)) == SLOWEAS
