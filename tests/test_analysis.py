"""Closed-form figures of merit and the shot harness."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import ProbeMode, ValidationError, geometry, p_error, run_shots
from kerrgate.analysis import ShotStats

# 0.5 * erfc(9 / (2 sqrt 2)), frozen from an independent 40-digit evaluation
# (mpmath) before being pinned here
P_ERROR_AT_XD_9 = 3.3976731247300603e-06

SQRT_HALF = 1.0 / math.sqrt(2.0)
UNIFORM = (SQRT_HALF, SQRT_HALF)


def theta_for_separation(alpha, xd):
    return math.acos(1.0 - xd / (2.0 * alpha))


class TestPError:
    def test_headline_bound_below_1e5_at_separation_9(self):
        theta = theta_for_separation(50.0, 9.0)
        assert p_error(50.0, theta) < 1e-5

    def test_regression_value_at_separation_9(self):
        theta = theta_for_separation(50.0, 9.0)
        assert p_error(50.0, theta) == pytest.approx(P_ERROR_AT_XD_9, rel=1e-12)

    def test_indistinguishable_peaks_give_coin_flip(self):
        assert p_error(0.0, 0.5) == pytest.approx(0.5)
        assert p_error(4.0, 0.0) == pytest.approx(0.5)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            p_error(4.0, 3.5)
        with pytest.raises(ValidationError):
            p_error(-1.0, 0.5)

    @pytest.mark.parametrize("theta", [math.pi / 2, 0.5, 0.05])
    def test_within_4_ulp_of_mpmath_up_to_separation_80(self, theta):
        # the reference takes the double argument xd / (2 sqrt 2) that
        # p_error forms: that rounding is the formula's input, not erfc's
        # error.  Up to xd ~ 77 the value is still a (subnormal) double;
        # SciPy's erfc returned 0 from xd ~ 75.1 on
        with mpmath.workdps(50):
            for target in np.linspace(0.0, 80.0, 2001):
                alpha = target / (4.0 * math.sin(0.5 * theta) ** 2)
                xd = geometry(alpha, theta).xd
                expected = mpmath.erfc(mpmath.mpf(xd / (2.0 * math.sqrt(2.0)))) / 2
                got = p_error(alpha, theta)
                assert abs(got - expected) <= 4 * math.ulp(float(expected)), (xd, got)
                if expected >= 2.0**-1074:
                    assert got > 0.0, xd

    def test_strictly_decreasing_in_alpha(self):
        theta = 0.4
        values = [p_error(a, theta) for a in np.linspace(0.5, 12, 24)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_theta_up_to_half_pi(self):
        alpha = 3.0
        values = [p_error(alpha, t) for t in np.linspace(0.05, math.pi / 2, 24)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGeometry:
    def test_right_angle_case(self):
        geo = geometry(10.0, math.pi / 2)
        assert geo.x0 == pytest.approx(10.0)
        assert geo.xd == pytest.approx(20.0)

    def test_degenerate_zero_theta(self):
        geo = geometry(7.0, 0.0)
        assert geo.xd == 0.0
        assert geo.x0 == pytest.approx(14.0)

    def test_showcase_regime_small_angle_limit(self):
        # mean photon number 1e12 (amplitude 1e6) with a 1e-3 phase unit:
        # the separation approaches alpha * theta^2
        alpha, theta = 1e6, 1e-3
        assert alpha * theta**2 == pytest.approx(1.0)
        assert abs(geometry(alpha, theta).xd - alpha * theta**2) / (alpha * theta**2) < 1e-6

    def test_small_angle_relative_error_below_percent(self):
        for theta in (0.02, 0.05, 0.09):
            merit = 100.0 * theta**2
            assert abs(geometry(100.0, theta).xd - merit) / merit < 0.01

    def test_separation_free_of_cancellation_at_tiny_theta(self):
        # xd = 2 alpha (1 - cos theta) = alpha theta^2 (1 - theta^2 / 12 + ...);
        # 1 - cos theta in floating point is off by ~1e-3 relative at theta = 1e-7
        alpha, theta = 1e14, 1e-7
        geo = geometry(alpha, theta)
        assert geo.xd == pytest.approx(alpha * theta**2 * (1 - theta**2 / 12), rel=1e-14)

    def test_threshold_is_the_probe_threshold(self):
        assert geometry(36.0, 0.5).x0 == ProbeMode(36.0, 0.5).x0

    @given(st.floats(0.0, 1e6), st.floats(0.0, math.pi))
    @settings(max_examples=80, deadline=None)
    def test_midpoint_identity(self, alpha, theta):
        geo = geometry(alpha, theta)
        assert geo.x0 + geo.xd / 2 == pytest.approx(2 * alpha, rel=1e-12, abs=1e-9)


class TestRunShots:
    def test_parity_frequencies_split_evenly_on_uniform_input(self):
        alpha = 36.0
        theta = 0.5  # alpha theta^2 = 9
        stats = run_shots("parity", [UNIFORM, UNIFORM], alpha, theta, 20_000, 5)
        sigma = math.sqrt(0.25 / stats.shots)
        assert abs(stats.parity_frequencies[0] - 0.5) < 3 * sigma
        assert sum(stats.parity_frequencies) == pytest.approx(1.0)

    def test_misclassification_rate_matches_analytic_error(self):
        # |HH> input at deliberately poor discrimination
        alpha = 8.0
        theta = theta_for_separation(alpha, 4.1)
        perr = p_error(alpha, theta)
        assert 1e-3 < perr < 1e-1
        stats = run_shots("parity", [(1, 0), (1, 0)], alpha, theta, 20_000, 6)
        sigma = math.sqrt(perr * (1 - perr) / stats.shots)
        assert abs(stats.logical_error_rate - perr) < 3 * sigma

    def test_cnot_error_rate_within_union_bound(self):
        """Basis input, strong separation: the error CI sits below a small
        multiple of p_error and cleanly excludes 10 p_error + 1e-3."""
        alpha = 60.0
        theta = theta_for_separation(alpha, 16.0)
        perr = p_error(alpha, theta)
        stats = run_shots("cnot", [(0, 1), (1, 0)], alpha, theta, 100_000, 7)
        lower = stats.logical_error_rate - stats.error_ci
        upper = stats.logical_error_rate + stats.error_ci
        assert lower <= 5 * perr
        assert upper < 10 * perr + 1e-3
        assert stats.mean_fidelity > 1 - 1e-6

    def test_entangler_error_free_at_strong_separation(self):
        alpha = 40.0
        theta = theta_for_separation(alpha, 14.0)
        stats = run_shots("entangler", [(0.6, 0.8), UNIFORM], alpha, theta, 2_000, 8)
        assert stats.logical_error_rate == 0.0
        assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_entangler45_error_free_at_strong_separation(self):
        alpha = 40.0
        theta = theta_for_separation(alpha, 14.0)
        stats = run_shots("entangler45", [(0.6, 0.8), (0.28, 0.96)], alpha, theta, 2_000, 9)
        assert stats.logical_error_rate == 0.0
        assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_single_shot_is_deterministic(self):
        kwargs = dict(inputs=[UNIFORM, (1, 0)], alpha=12.0, theta=0.7, shots=1, seed=123)
        first = run_shots("parity", **kwargs)
        second = run_shots("parity", **kwargs)
        assert first == second
        assert repr(first) == repr(second)

    def test_full_runs_are_reproducible(self):
        kwargs = dict(inputs=[UNIFORM, UNIFORM], alpha=10.0, theta=0.6, shots=300, seed=44)
        assert run_shots("cnot", **kwargs) == run_shots("cnot", **kwargs)

    @pytest.mark.parametrize("experiment", ["parity", "entangler", "entangler45", "cnot"])
    def test_weak_kerr_limit_is_error_free_at_fixed_separation(self, experiment):
        """Hold xd = 20 (analytic error ~1e-23) while alpha grows to 1e11 and
        theta shrinks: the measured phases reach ~1e17 rad, and the
        feed-forward must still undo exactly the phase the collapse added."""
        rng = np.random.default_rng(8)
        for alpha in (1e3, 1e5, 1e7, 1e9, 1e11):
            theta = 2.0 * math.asin(math.sqrt(20.0 / (4.0 * alpha)))
            assert geometry(alpha, theta).xd == pytest.approx(20.0, rel=1e-12)
            pairs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            inputs = [tuple(p / np.linalg.norm(p)) for p in pairs]
            stats = run_shots(experiment, inputs, alpha, theta, 400, 12)
            assert stats.logical_error_rate == 0.0, alpha
            assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError):
            run_shots("teleport", [UNIFORM, UNIFORM], 4.0, 0.4, 10, 0)

    def test_shots_are_read_as_an_integer(self):
        """Any integer type but ``bool`` counts shots, and the stats echo a
        plain int; a bool is refused (``test_rejections.py``)."""
        for shots in (np.int64(3), np.uint8(3)):
            stats = run_shots("parity", [(1, 0), (1, 0)], 20.0, 0.8, shots, 11)
            assert type(stats.shots) is int and stats.shots == int(shots)

    def test_stats_fields(self):
        stats = run_shots("parity", [(1, 0), (1, 0)], 20.0, 0.8, 50, 11)
        assert isinstance(stats, ShotStats)
        assert stats.shots == 50
        assert stats.seed == 11
        assert stats.error_ci == pytest.approx(
            3 * math.sqrt(stats.logical_error_rate * (1 - stats.logical_error_rate) / 50)
        )
