"""Tests for health-driven adaptive thresholds (repro.core.adaptive)."""

import hashlib
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.core import (
    AdaptiveThresholdPolicy,
    Atropos,
    AtroposConfig,
    HealthSignalSource,
    NoAdaptation,
    OverloadDetector,
)
from repro.core.decision_log import DecisionKind, DecisionLog
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_policy(env, **overrides):
    settings = dict(
        slo_latency=0.1,
        detection_window=1.0,
        adaptive_thresholds=True,
        adapt_recovery_windows=3,
    )
    settings.update(overrides)
    config = AtroposConfig(**settings)
    detector = OverloadDetector(env, config)
    log = DecisionLog()
    return AdaptiveThresholdPolicy(detector, config, log), detector, log


def health(kind):
    return SimpleNamespace(kind=kind)


class TestAdaptiveThresholdPolicy:
    def test_flapping_widens_detection_window(self, env):
        policy, detector, log = make_policy(env)
        policy.adapt(1.0, {"health_events": [health("detector-flapping")]})
        assert detector.live.detection_window == pytest.approx(1.5)
        assert policy.adaptations == 1
        events = log.events_of(DecisionKind.ADAPT)
        assert len(events) == 1
        assert events[0].details["param"] == "detection_window"
        assert events[0].details["reason"] == "detector-flapping"

    def test_window_widening_is_capped(self, env):
        policy, detector, log = make_policy(
            env, adapt_max_window_multiple=2.0
        )
        for t in range(10):
            policy.adapt(
                float(t), {"health_events": [health("detector-flapping")]}
            )
        assert detector.live.detection_window == pytest.approx(2.0)
        # Once capped, further flapping makes no move and logs no event.
        assert policy.adaptations == len(log.events_of(DecisionKind.ADAPT))
        assert policy.adaptations == 2  # 1.0 -> 1.5 -> 2.0 (capped)

    def test_sustained_p99_tightens_slack(self, env):
        policy, detector, _ = make_policy(env, adapt_p99_sustain=3)
        for t in range(2):
            policy.adapt(float(t), {"health_events": [health("p99-ceiling")]})
        assert detector.live.slo_slack == pytest.approx(1.2)  # not yet
        policy.adapt(2.0, {"health_events": [health("p99-ceiling")]})
        assert detector.live.slo_slack == pytest.approx(1.15)

    def test_slack_floor(self, env):
        policy, detector, _ = make_policy(
            env, adapt_p99_sustain=1, adapt_min_slack=1.1
        )
        for t in range(10):
            policy.adapt(float(t), {"health_events": [health("p99-ceiling")]})
        assert detector.live.slo_slack == pytest.approx(1.1)

    def test_p99_streak_resets_on_healthy_window(self, env):
        policy, detector, _ = make_policy(env, adapt_p99_sustain=3)
        for t in range(2):
            policy.adapt(float(t), {"health_events": [health("p99-ceiling")]})
        policy.adapt(2.0, {"health_events": []})
        policy.adapt(3.0, {"health_events": [health("p99-ceiling")]})
        assert detector.live.slo_slack == pytest.approx(1.2)

    def test_recovery_steps_back_toward_config(self, env):
        policy, detector, log = make_policy(env, adapt_recovery_windows=2)
        policy.adapt(0.0, {"health_events": [health("detector-flapping")]})
        assert detector.live.detection_window == pytest.approx(1.5)
        policy.adapt(1.0, {"health_events": []})
        policy.adapt(2.0, {"health_events": []})
        assert detector.live.detection_window == pytest.approx(1.0)
        reasons = [e.details["reason"] for e in log.events_of(DecisionKind.ADAPT)]
        assert reasons[-1] == "recovery"

    def test_every_move_is_an_adapt_event(self, env):
        policy, _, log = make_policy(env, adapt_p99_sustain=1)
        policy.adapt(0.0, {"health_events": [health("detector-flapping")]})
        policy.adapt(1.0, {"health_events": [health("p99-ceiling")]})
        assert policy.adaptations == 2
        assert len(log.events_of(DecisionKind.ADAPT)) == 2
        assert len(policy.adapt_events) == 2
        for change in policy.adapt_events:
            assert set(change) == {"time", "param", "old", "new", "reason"}

    def test_no_events_no_moves(self, env):
        policy, detector, log = make_policy(env)
        for t in range(50):
            policy.adapt(float(t), {"health_events": []})
        assert policy.adaptations == 0
        assert detector.live.detection_window == pytest.approx(1.0)
        assert detector.live.slo_slack == pytest.approx(1.2)
        assert log.events_of(DecisionKind.ADAPT) == []


class TestHealthSignalSource:
    def test_maps_detector_signals_to_rule_values(self, env):
        from repro.telemetry.health import HealthMonitor, HealthRule

        monitor = HealthMonitor([
            HealthRule(
                name="ceiling",
                kind="p99-ceiling",
                params={"limit": 0.1, "min_samples": 1},
            )
        ])
        source = HealthSignalSource(monitor)
        signals = {
            "potential_overload": True,
            "detector_tail_latency": 0.5,
            "detector_samples": 20,
        }
        source.sample(1.0, signals)
        events = signals["health_events"]
        assert [e.kind for e in events] == ["p99-ceiling"]


class TestAtroposWiring:
    def test_adaptive_off_by_default(self, env):
        atropos = Atropos(env, AtroposConfig(slo_latency=0.05))
        assert isinstance(atropos.adaptation, NoAdaptation)
        assert not any(
            isinstance(s, HealthSignalSource) for s in atropos.pipeline.sources
        )

    def test_adaptive_flag_builds_the_policy(self, env):
        atropos = Atropos(
            env,
            AtroposConfig(slo_latency=0.05, adaptive_thresholds=True),
        )
        assert isinstance(atropos.adaptation, AdaptiveThresholdPolicy)
        assert any(
            isinstance(s, HealthSignalSource) for s in atropos.pipeline.sources
        )
        assert atropos.pipeline.adaptation is atropos.adaptation


class TestAdaptiveRuns:
    def test_adaptive_run_diverges_and_audits(self):
        from repro.campaign import execute
        from repro.experiments.case_family import case_spec

        for case_id in ("c2", "c12"):
            fixed, adaptive = execute([
                case_spec("adapt-test", case_id, 1, system="atropos"),
                case_spec("adapt-test", case_id, 1,
                          overlay={"adaptive_thresholds": True}),
            ])
            assert fixed.extras.get("adaptations", 0) == 0, case_id
            assert adaptive.adaptations > 0, case_id
            assert adaptive.extras["adapt_events"], case_id
            assert fixed.summary.p99_latency != \
                adaptive.summary.p99_latency, case_id

    def test_fixed_case_unaffected_when_health_never_fires(self):
        # Seed 0 on c2 never trips the health rules: the adaptive run
        # must be outcome-identical to the fixed one.
        from repro.campaign import execute
        from repro.experiments.case_family import case_spec

        fixed, adaptive = execute([
            case_spec("adapt-test", "c2", 0, system="atropos"),
            case_spec("adapt-test", "c2", 0,
                      overlay={"adaptive_thresholds": True}),
        ])
        assert adaptive.adaptations == 0
        assert fixed.summary == adaptive.summary
        assert fixed.cancels == adaptive.cancels


_DETERMINISM_SCRIPT = """
import json
import os
import sys

os.environ["REPRO_CACHE"] = "0"

from repro.campaign import execute
from repro.experiments.case_family import case_spec

outcome, = execute([
    case_spec("det", "c2", 1, overlay={"adaptive_thresholds": True})
])
payload = outcome.to_payload()
payload.pop("walltime")
payload.pop("worker", None)
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""


def _adaptive_digest(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout, proc.stderr
    assert '"adaptations"' in proc.stdout
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def test_adaptive_run_byte_identical_across_hash_seeds():
    digests = {_adaptive_digest(seed) for seed in ("0", "1", "9973")}
    assert len(digests) == 1
