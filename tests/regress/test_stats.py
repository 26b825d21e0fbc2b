"""Tests for the drift statistics (`repro.regress.stats`)."""

import math

from repro.regress.stats import (
    bootstrap_mean_ci,
    count_drift,
    paired_series_drift,
    scalar_drift,
)


class TestBootstrapCI:
    def test_deterministic_across_calls(self):
        deltas = [0.1, -0.2, 0.3, 0.05, -0.1, 0.2]
        assert bootstrap_mean_ci(deltas) == bootstrap_mean_ci(deltas)

    def test_single_delta_degenerates(self):
        assert bootstrap_mean_ci([0.5]) == (0.5, 0.5)

    def test_empty_is_nan(self):
        lo, hi = bootstrap_mean_ci([])
        assert math.isnan(lo) and math.isnan(hi)

    def test_ci_brackets_obvious_shift(self):
        lo, hi = bootstrap_mean_ci([1.0, 1.1, 0.9, 1.05, 0.95] * 4)
        assert 0.8 < lo <= hi < 1.2


class TestPairedSeriesDrift:
    def test_identical_series_short_circuit(self):
        series = [1.0, 2.0, 3.0, 4.0]
        result = paired_series_drift(series, series)
        assert not result["drifted"]
        assert result["ci"] == [0.0, 0.0]

    def test_large_shift_drifts(self):
        base = [1.0] * 20
        cur = [1.5] * 19 + [1.4]
        result = paired_series_drift(base, cur)
        assert result["drifted"]
        assert result["rel_change"] > 0.4

    def test_small_shift_within_tolerance_passes(self):
        base = [1.0] * 20
        cur = [1.01] * 20
        assert not paired_series_drift(base, cur)["drifted"]

    def test_none_windows_skipped(self):
        base = [1.0, None, 2.0, None]
        cur = [1.0, 5.0, 2.0, None]
        result = paired_series_drift(base, cur)
        assert result["n"] == 2
        assert not result["drifted"]

    def test_empty_series_no_drift(self):
        result = paired_series_drift([], [])
        assert not result["drifted"]
        assert result["n"] == 0

    def test_noise_without_mean_shift_passes(self):
        base = [1.0, 2.0] * 10
        cur = [2.0, 1.0] * 10
        assert not paired_series_drift(base, cur)["drifted"]


class TestCountDrift:
    def test_identical_counts(self):
        assert not count_drift(10, 10)["drifted"]

    def test_tiny_absolute_changes_never_drift(self):
        assert not count_drift(0, 2)["drifted"]
        assert not count_drift(1, 0)["drifted"]

    def test_large_jump_drifts(self):
        result = count_drift(5, 50)
        assert result["drifted"]
        assert result["z"] > 3.0

    def test_proportional_noise_passes(self):
        assert not count_drift(100, 110)["drifted"]

    def test_zero_zero(self):
        assert not count_drift(0, 0)["drifted"]


class TestScalarDrift:
    def test_equal_values(self):
        assert not scalar_drift(1.0, 1.0)["drifted"]

    def test_both_missing(self):
        assert not scalar_drift(None, None)["drifted"]
        nan = float("nan")
        assert not scalar_drift(nan, nan)["drifted"]

    def test_one_missing_drifts(self):
        assert scalar_drift(None, 1.0)["drifted"]
        assert scalar_drift(1.0, None)["drifted"]

    def test_relative_tolerance(self):
        assert not scalar_drift(1.0, 1.04)["drifted"]
        assert scalar_drift(1.0, 1.06)["drifted"]

    def test_zero_baseline_uses_abs_tol(self):
        assert not scalar_drift(0.0, 0.0)["drifted"]
        assert scalar_drift(0.0, 0.1)["drifted"]
