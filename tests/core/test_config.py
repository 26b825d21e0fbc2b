"""Tests for AtroposConfig construction-time validation."""

import pytest

from repro.core import AtroposConfig


class TestValidation:
    def test_defaults_are_valid(self):
        AtroposConfig()

    def test_zero_detection_window_rejected(self):
        with pytest.raises(ValueError, match="detection_window must be > 0"):
            AtroposConfig(detection_window=0.0)

    def test_negative_slo_rejected(self):
        with pytest.raises(ValueError, match="slo_latency must be > 0"):
            AtroposConfig(slo_latency=-0.1)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError, match="latency_percentile"):
            AtroposConfig(latency_percentile=0.0)
        with pytest.raises(ValueError, match="latency_percentile"):
            AtroposConfig(latency_percentile=101.0)
        AtroposConfig(latency_percentile=100.0)  # inclusive upper bound

    def test_min_window_samples_floor(self):
        with pytest.raises(ValueError, match="min_window_samples"):
            AtroposConfig(min_window_samples=0)

    def test_adaptive_knob_bounds(self):
        with pytest.raises(ValueError, match="adapt_window_widen_factor"):
            AtroposConfig(adapt_window_widen_factor=0.5)
        with pytest.raises(ValueError, match="adapt_p99_sustain"):
            AtroposConfig(adapt_p99_sustain=0)
        with pytest.raises(ValueError, match="adapt_min_slack"):
            AtroposConfig(adapt_min_slack=0.0)

    def test_unknown_policy_names_the_known_ones(self):
        with pytest.raises(
            ValueError,
            match="policy must be one of multi_objective, heuristic, "
            "current_usage .got 'bogus'.",
        ):
            AtroposConfig(policy="bogus")

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ValueError) as exc:
            AtroposConfig(
                slo_latency=0.0,
                detection_period=-1.0,
                latency_percentile=200.0,
            )
        message = str(exc.value)
        assert message.startswith("invalid AtroposConfig: ")
        assert "slo_latency" in message
        assert "detection_period" in message
        assert "latency_percentile" in message

    def test_validate_callable_after_mutation(self):
        config = AtroposConfig()
        config.slo_slack = 0.0
        with pytest.raises(ValueError, match="slo_slack"):
            config.validate()
