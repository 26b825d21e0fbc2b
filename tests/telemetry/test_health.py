"""Unit tests for the declarative health-rule engine."""

import pytest

from repro.telemetry import (
    HealthEvent,
    HealthMonitor,
    HealthRule,
    default_health_rules,
    worst_severity,
)


def rule(kind, **params):
    return HealthRule(name=kind, kind=kind, params=params)


class TestP99Ceiling:
    def test_fires_over_ceiling_with_enough_samples(self):
        monitor = HealthMonitor(
            [rule("p99-ceiling", limit=0.1, min_samples=3)]
        )
        fired = monitor.evaluate(
            1.0, {"p99": 0.5, "completed_window": 10.0}
        )
        assert len(fired) == 1
        assert fired[0].kind == "p99-ceiling"
        assert fired[0].value == pytest.approx(0.5)

    def test_respects_min_samples_and_nan(self):
        monitor = HealthMonitor(
            [rule("p99-ceiling", limit=0.1, min_samples=3)]
        )
        assert monitor.evaluate(
            1.0, {"p99": 0.5, "completed_window": 2.0}
        ) == []
        assert monitor.evaluate(
            2.0, {"p99": float("nan"), "completed_window": 10.0}
        ) == []

    def test_quiet_under_ceiling(self):
        monitor = HealthMonitor([rule("p99-ceiling", limit=1.0)])
        assert monitor.evaluate(
            1.0, {"p99": 0.5, "completed_window": 5.0}
        ) == []


class TestGoodputFloor:
    def test_fires_only_while_load_is_offered(self):
        monitor = HealthMonitor([rule("goodput-floor", floor=50.0)])
        assert monitor.evaluate(
            1.0, {"goodput": 10.0, "offered_window": 0.0}
        ) == []
        fired = monitor.evaluate(
            2.0, {"goodput": 10.0, "offered_window": 5.0}
        )
        assert [e.kind for e in fired] == ["goodput-floor"]

    def test_quiet_at_or_above_floor(self):
        monitor = HealthMonitor([rule("goodput-floor", floor=50.0)])
        assert monitor.evaluate(
            1.0, {"goodput": 50.0, "offered_window": 5.0}
        ) == []


class TestCancelStorm:
    def test_fires_at_threshold(self):
        monitor = HealthMonitor([rule("cancel-storm", max_per_window=3)])
        assert monitor.evaluate(1.0, {"cancels_window": 2.0}) == []
        fired = monitor.evaluate(2.0, {"cancels_window": 3.0})
        assert [e.kind for e in fired] == ["cancel-storm"]


class TestDetectorFlapping:
    def test_fires_after_enough_transitions(self):
        monitor = HealthMonitor(
            [rule("detector-flapping", transitions=3, lookback=8)]
        )
        fired = []
        for i, state in enumerate([0.0, 1.0, 0.0, 1.0]):
            fired = monitor.evaluate(
                float(i), {"detector_overloaded": state}
            )
        assert [e.kind for e in fired] == ["detector-flapping"]
        assert fired[0].value == 3.0

    def test_stable_detector_never_fires(self):
        monitor = HealthMonitor([rule("detector-flapping")])
        for i in range(10):
            assert monitor.evaluate(
                float(i), {"detector_overloaded": 1.0}
            ) == []


class TestWrongCulpritRate:
    def test_fires_on_unexpected_op(self):
        monitor = HealthMonitor(
            [rule("wrong-culprit-rate", expected=("backup",))]
        )
        assert monitor.evaluate(1.0, {}, cancelled_ops=["backup"]) == []
        fired = monitor.evaluate(2.0, {}, cancelled_ops=["point_read"])
        assert [e.kind for e in fired] == ["wrong-culprit-rate"]
        assert "point_read" in fired[0].message

    def test_rate_is_cumulative_across_windows(self):
        monitor = HealthMonitor(
            [rule("wrong-culprit-rate", expected=("backup",),
                  max_rate=0.5)]
        )
        # 3 right then 1 wrong: rate 0.25 <= 0.5, quiet.
        monitor.evaluate(1.0, {}, cancelled_ops=["backup"] * 3)
        assert monitor.evaluate(2.0, {}, cancelled_ops=["scan"]) == []
        # Two more wrong: cumulative rate 3/6 still quiet, then 4/7 fires.
        assert monitor.evaluate(3.0, {}, cancelled_ops=["scan", "scan"]) == []
        fired = monitor.evaluate(4.0, {}, cancelled_ops=["scan"])
        assert len(fired) == 1


class TestMonitorPlumbing:
    def test_unknown_kind_raises(self):
        monitor = HealthMonitor([rule("no-such-rule")])
        with pytest.raises(ValueError):
            monitor.evaluate(1.0, {})

    def test_events_accumulate_on_monitor(self):
        monitor = HealthMonitor([rule("cancel-storm", max_per_window=1)])
        monitor.evaluate(1.0, {"cancels_window": 1.0})
        monitor.evaluate(2.0, {"cancels_window": 1.0})
        assert len(monitor.events) == 2

    def test_event_to_dict_is_json_safe(self):
        event = HealthEvent(
            time=1.0, rule="r", kind="p99-ceiling", severity="warn",
            value=float("nan"), threshold=0.1, message="m",
        )
        assert event.to_dict()["value"] is None


class TestDefaults:
    def test_base_rules_without_slo(self):
        kinds = {r.kind for r in default_health_rules()}
        assert kinds == {"cancel-storm", "detector-flapping"}

    def test_slo_and_culprits_add_rules(self):
        rules = default_health_rules(slo=0.05, expected_culprits=["backup"])
        kinds = {r.kind for r in rules}
        assert "p99-ceiling" in kinds
        assert "wrong-culprit-rate" in kinds
        ceiling = next(r for r in rules if r.kind == "p99-ceiling")
        assert ceiling.params["limit"] == pytest.approx(0.25)

    def test_session_rules_read_the_declared_slo(self):
        from repro.core.config import AtroposConfig
        from repro.core.controller import BaseController
        from repro.core.runtime import TracingController
        from repro.sim import Environment
        from repro.telemetry import TelemetrySession

        session = TelemetrySession()
        traced = TracingController(
            Environment(), AtroposConfig(slo_latency=0.05)
        )
        assert traced.slo_latency == 0.05
        ceiling = next(
            r for r in session.rules_for(traced) if r.kind == "p99-ceiling"
        )
        assert ceiling.params["limit"] == pytest.approx(0.25)
        bare = BaseController(Environment())
        assert bare.slo_latency is None
        assert "p99-ceiling" not in {
            r.kind for r in session.rules_for(bare)
        }

    def test_worst_severity(self):
        warn = HealthEvent(0, "r", "k", "warn", 1, 1, "m")
        crit = HealthEvent(0, "r", "k", "critical", 1, 1, "m")
        assert worst_severity([]) is None
        assert worst_severity([warn]) == "warn"
        assert worst_severity([warn, crit]) == "critical"
