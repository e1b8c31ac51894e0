import warnings

import numpy as np
import pytest

from spinsplice.control import (
    ControlSchedule,
    apply_noise,
    linear_baseline,
    noise_window_count,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
    sine_cut,
)
from spinsplice.dynamics import integration_grid
from spinsplice.runner import parse_config

from oracles import reference_grid, schedule_derivative


class TestEvaluate:
    def test_linear_cut(self):
        for duration in (1.0, 2.0, 0.37):
            sched = linear_baseline(duration, "cut")
            for t in np.linspace(0.0, duration, 7):
                assert float(sched.values(t)) == pytest.approx(1.0 - t / duration, abs=1e-14)
            assert float(sched.values(-0.5)) == 1.0
            assert float(sched.values(duration + 0.5)) == 0.0

    def test_linear_stitch(self):
        sched = linear_baseline(1.0, "stitch")
        assert float(sched.values(0.25)) == pytest.approx(0.25, abs=1e-14)
        assert float(sched.values(-1.0)) == 0.0
        assert float(sched.values(2.0)) == 1.0

    def test_polynomial_published_parameters_midpoint(self):
        # two free coefficients 0.87 and -0.72 give a derived leading -1.15;
        # halfway through the drive: 1 - 1.15/2 + 0.87/4 - 0.72/8 = 0.5525
        sched = polynomial_cut(2.0, (0.87, -0.72))
        assert float(sched.values(1.0)) == pytest.approx(0.5525, abs=1e-12)

    def test_endpoint_exactness_polynomial_and_sine(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = tuple(rng.normal(scale=40.0, size=rng.integers(1, 5)))
            poly = polynomial_cut(0.6, params)
            assert abs(float(poly.values(0.0)) - 1.0) < 1e-12
            assert abs(float(poly.values(0.6))) < 1e-12
            sine = sine_cut(0.6, tuple(rng.normal(size=3)))
            assert abs(float(sine.values(0.0)) - 1.0) < 1e-12
            assert abs(float(sine.values(0.6))) < 1e-12
            stitch = polynomial_stitch(0.6, params)
            assert abs(float(stitch.values(0.0))) < 1e-12
            assert abs(float(stitch.values(0.6)) - 1.0) < 1e-12

    def test_pulse_windows(self):
        sched = pulse_train(0.6, (-5.4, 4.1))
        assert float(sched.values(0.1)) == -5.4
        assert float(sched.values(0.45)) == 4.1
        # half-open windows: the boundary belongs to the later pulse
        assert float(sched.values(0.0)) == -5.4
        assert float(sched.values(0.3)) == 4.1
        # plateaus outside the drive
        assert float(sched.values(-0.01)) == 1.0
        assert float(sched.values(0.6)) == 0.0
        assert float(sched.values(7.0)) == 0.0

    def test_pulse_stitch_plateaus(self):
        sched = pulse_train(1.0, (0.3, 0.9), direction="stitch")
        assert float(sched.values(-1.0)) == 0.0
        assert float(sched.values(1.0)) == 1.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        schedules = [
            polynomial_cut(0.6, (54.3, -36.3)),
            sine_cut(0.6, (0.3, -0.1)),
            pulse_train(0.6, (-5.4, 4.1)),
            polynomial_stitch(0.9, (1.0, 2.0, -0.5)),
        ]
        ts = rng.uniform(-0.5, 1.5, size=40)
        for sched in schedules:
            vec = sched.values(ts)
            assert np.allclose(vec, [float(sched.values(t)) for t in ts], atol=1e-14)

    def test_tiny_widths_index_without_warnings(self):
        # far past a tiny pulse width or noise window the index reads the
        # clipped time: no cast or floor_divide overflow, the same values
        pulses = pulse_train(1e-300, (1.0, 0.5))
        noisy = apply_noise(pulse_train(1e-323, (1.0, 0.5)), window=5e-324, strength=1.0, seed=3)
        assert len(noisy.offsets) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pulses.values([1.0, -1.0, 0.0, 0.6e-300]).tolist() == [0.0, 1.0, 1.0, 0.5]
            values = noisy.values([1.0, -1.0, 0.0, 5e-324, 1e-323])
        assert values.tolist() == [0.0, 1.0, 1.0 + noisy.offsets[0], 0.5 + noisy.offsets[1], 0.0]


class TestStitchMirror:
    def test_pointwise_mirror_of_cut(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = tuple(rng.normal(scale=20.0, size=3))
            duration = float(rng.uniform(0.2, 3.0))
            stitch = polynomial_stitch(duration, params)
            cut = polynomial_cut(duration, params)
            for t in np.linspace(-0.2, duration + 0.2, 23):
                assert float(stitch.values(t)) == pytest.approx(float(cut.values(duration - t)), abs=1e-12)


class TestDerivative:
    def test_matches_numerical_derivative(self):
        schedules = [
            polynomial_cut(0.6, (54.3, -36.3)),
            sine_cut(0.6, (0.3, -0.1)),
            polynomial_stitch(0.9, (4.0, -2.0)),
        ]
        eps = 1e-7
        for sched in schedules:
            for t in np.linspace(0.05, sched.duration - 0.05, 9):
                numeric = (float(sched.values(t + eps)) - float(sched.values(t - eps))) / (2 * eps)
                assert schedule_derivative(sched, t) == pytest.approx(numeric, abs=1e-5)

    def test_sine_boundary_slope_inequalities(self):
        # negative slope at both ends is equivalent to the two half-plane
        # conditions on the sine coefficients (two-term series)
        rng = np.random.default_rng(17)
        duration = 0.6
        for _ in range(200):
            b1, b2 = rng.uniform(-1.0, 1.0, size=2)
            sched = sine_cut(duration, (b1, b2))
            start_negative = schedule_derivative(sched, 0.0) < 0.0
            end_negative = schedule_derivative(sched, duration) < 0.0
            assert start_negative == (b2 < 1.0 / (2.0 * np.pi) - b1 / 2.0)
            assert end_negative == (b2 < 1.0 / (2.0 * np.pi) + b1 / 2.0)

    def test_pulse_derivative_is_zero(self):
        sched = pulse_train(1.0, (2.0, -1.0))
        assert schedule_derivative(sched, 0.4) == 0.0


class TestValidation:
    def test_duration_positive(self):
        with pytest.raises(ValueError, match="duration"):
            polynomial_cut(0.0)
        with pytest.raises(ValueError, match="duration"):
            polynomial_cut(-1.0, (1.0,))

    @pytest.mark.parametrize("build, field", [
        (lambda: polynomial_cut(float("nan")), "duration"),
        (lambda: pulse_train(float("inf"), (1.0, -2.0)), "duration"),
        (lambda: polynomial_cut(0.6, (float("nan"),)), "params"),
        (lambda: pulse_train(0.6, (1.0, float("inf"))), "params"),
        (lambda: sine_cut(0.6, (float("-inf"),)), "params"),
        (lambda: ControlSchedule("polynomial_cut", 0.6, (), "cut", 0.1, (0.2, float("nan"))), "offsets"),
        (lambda: apply_noise(linear_baseline(0.6), float("nan"), 1.0, 1), "noise window"),
        (lambda: apply_noise(linear_baseline(0.6), 0.1, float("nan"), 1), "noise strength"),
        (lambda: apply_noise(linear_baseline(0.6), 0.1, float("inf"), 1), "noise strength"),
    ], ids=["nan-T", "inf-T", "nan-param", "inf-amplitude", "-inf-param", "nan-offset", "nan-window",
            "nan-strength", "inf-strength"])
    def test_non_finite_inputs_are_refused(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_kind_direction_consistency(self):
        with pytest.raises(ValueError, match="direction"):
            ControlSchedule("polynomial_cut", 1.0, (), "stitch")
        with pytest.raises(ValueError, match="direction"):
            ControlSchedule("sine_cut", 1.0, (0.1,), "stitch")

    def test_pulse_needs_amplitudes(self):
        with pytest.raises(ValueError, match="amplitude"):
            pulse_train(1.0, ())

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ControlSchedule("spline", 1.0, (), "cut")

    def test_roundtrip_serialization(self):
        # the wire format is read back by the run-config parser
        for sched in (
            polynomial_cut(0.6, (54.3, -36.3)),
            sine_cut(0.6, (0.3, -0.1)),
            pulse_train(0.6, (-5.4, 4.1), "stitch"),
            polynomial_stitch(2.0, (0.87, -0.72)),
        ):
            config = parse_config({"mode": "evolve", "chain": {"n_spins": 3, "field": 2.0},
                                   "process": sched.direction, "schedule": sched.to_dict()})
            assert config.schedule == sched


class TestNoise:
    def test_zero_strength_is_identity(self):
        base = polynomial_cut(0.6, (54.3, -36.3))
        noisy = apply_noise(base, window=0.01, strength=0.0, seed=42)
        ts = np.linspace(-0.1, 0.7, 50)
        assert np.abs(noisy.values(ts) - base.values(ts)).max() < 1e-15

    def test_fixed_seed_is_reproducible(self):
        base = linear_baseline(0.6)
        first = apply_noise(base, 0.1, 0.8, 123456)
        second = apply_noise(base, 0.1, 0.8, 123456)
        assert first == second
        assert apply_noise(base, 0.1, 0.8, 654321).offsets != first.offsets

    def test_offsets_bounded_and_windows_counted(self):
        base = linear_baseline(0.6)
        strength = 1.4
        noisy = apply_noise(base, window=0.01, strength=strength, seed=5)
        assert len(noisy.offsets) == 60
        assert noise_window_count(0.6, 0.01) == 60
        assert noise_window_count(0.6, 0.25) == 3
        assert max(abs(o) for o in noisy.offsets) <= strength / 2.0

    def test_noise_is_zero_mean(self):
        base = linear_baseline(1.0)
        strength = 1.0
        t_probe = 0.37
        draws = [
            float(apply_noise(base, window=0.5, strength=strength, seed=s).values(t_probe))
            - float(base.values(t_probe))
            for s in range(4000)
        ]
        # uniform offsets have std strength/sqrt(12); allow four standard errors
        standard_error = strength / np.sqrt(12.0 * len(draws))
        assert abs(np.mean(draws)) < 4.0 * standard_error

    def test_outside_window_unchanged(self):
        base = linear_baseline(0.6)
        noisy = apply_noise(base, window=0.1, strength=2.0, seed=11)
        assert float(noisy.values(-0.2)) == float(base.values(-0.2))
        assert float(noisy.values(0.6)) == float(base.values(0.6))
        assert float(noisy.values(1.0)) == float(base.values(1.0))

    def test_spec_validation(self):
        base = linear_baseline(0.6)
        with pytest.raises(ValueError, match="noise window must be positive, got 0.0"):
            apply_noise(base, window=0.0, strength=1.0, seed=1)
        with pytest.raises(ValueError, match="noise strength must be finite and >= 0, got -1.0"):
            apply_noise(base, window=0.1, strength=-1.0, seed=1)
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            apply_noise(base, window=0.1, strength=1.0, seed=-5)

    def test_noise_applies_to_a_clean_schedule_only(self):
        noisy = apply_noise(linear_baseline(0.6), window=0.1, strength=1.0, seed=1)
        with pytest.raises(ValueError, match="already carries a noise realization"):
            apply_noise(noisy, window=0.1, strength=1.0, seed=2)

    @pytest.mark.parametrize("window", [0.0, -0.1, float("nan")])
    def test_offsets_need_a_positive_window(self, window):
        with pytest.raises(ValueError, match="noise offsets need a positive window"):
            ControlSchedule("polynomial_cut", 0.6, (), "cut", window=window, offsets=(0.1,))

    def test_wire_format_is_the_clean_schedule(self):
        base = pulse_train(0.6, (1.0, -2.0))
        assert apply_noise(base, window=0.2, strength=0.5, seed=3).to_dict() == base.to_dict()

    @pytest.mark.parametrize("base", [polynomial_cut(0.6, (54.3, -36.3)), pulse_train(0.6, (4.0, -2.5, 1.5, 3.0))],
                             ids=["polynomial", "pulse"])
    def test_each_window_adds_its_offset_exactly(self, base):
        noisy = apply_noise(base, window=0.07, strength=1.3, seed=17)
        assert len(noisy.offsets) == 9
        for k, offset in enumerate(noisy.offsets):
            t = (k + 0.5) * 0.07  # inside window k
            assert float(noisy.values(t)) == float(base.values(t)) + offset
            assert noisy.values(np.array([t]))[0] == base.values(np.array([t]))[0] + offset
        for t in (-1.0, -1e-12, 0.6, 0.6 + 1e-12, 2.0):
            assert float(noisy.values(t)) == float(base.values(t)) == (1.0 if t < 0 else 0.0)

    def test_breakpoints_at_the_smallest_duration(self):
        # T / K underflows to 0: the pulse edges are k T / K = 0, sorted, and
        # the grid still ends in one step [0, T]
        base = pulse_train(5e-324, (1.0, -2.0, 0.5))
        noisy = apply_noise(base, window=5e-324, strength=0.5, seed=3)
        for schedule in (base, noisy):
            assert schedule.breakpoints().dtype == np.float64
            assert schedule.breakpoints().tolist() == [0.0, 0.0]
            assert integration_grid(schedule, 300).tolist() == [0.0, 5e-324]

    @pytest.mark.filterwarnings("error")
    def test_values_at_the_smallest_duration(self):
        # the pulse width T / K underflows to 0: [0, T) is all the first pulse
        base = pulse_train(5e-324, (1.0, 0.5, 0.2))
        noisy = apply_noise(base, window=5e-324, strength=0.5, seed=3)
        times = np.array([0.0, 5e-324])
        assert base.values(times).tolist() == [1.0, 0.0]
        assert noisy.values(times).tolist() == [1.0 + noisy.offsets[0], 0.0]

    def test_breakpoints_cover_noise_windows(self):
        base = pulse_train(0.6, (1.0, -2.0))
        noisy = apply_noise(base, window=0.2, strength=0.5, seed=3)
        assert noisy.breakpoints() == pytest.approx((0.2, 0.3, 0.4))
        # window edges past the duration (more offsets than windows) add no jump
        extra = ControlSchedule("polynomial_cut", 0.6, (), "cut", 0.2, (0.1, 0.2, 0.3, 0.4, 0.5))
        assert extra.breakpoints().tolist() == [0.2, 0.4]
        assert integration_grid(extra, 6).tobytes() == reference_grid(extra, 6).tobytes()
