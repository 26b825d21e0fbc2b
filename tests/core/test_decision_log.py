"""Tests for the decision log and the Atropos explain() timeline."""

import pytest

from repro.core.decision_log import (
    NO_CANDIDATES,
    DecisionAudit,
    DecisionEvent,
    DecisionKind,
    DecisionLog,
    DetectorSignal,
)


class TestDecisionLog:
    def test_record_and_query(self):
        log = DecisionLog()
        log.record(1.0, DecisionKind.DETECTION, "d1")
        log.record(2.0, DecisionKind.CANCELLATION, "c1", key=7)
        assert len(log) == 2
        assert [e.summary for e in log.events_of(DecisionKind.CANCELLATION)] == ["c1"]

    def test_between(self):
        log = DecisionLog()
        for t in (0.5, 1.5, 2.5):
            log.record(t, DecisionKind.DETECTION, f"at-{t}")
        assert [e.time for e in log.between(1.0, 2.0)] == [1.5]

    def test_a_long_run_keeps_every_event_and_audit_in_order(self):
        log = DecisionLog()
        signal = DetectorSignal(None, None, None, 0.0)
        for i in range(12_000):
            log.record(float(i), DecisionKind.DETECTION, f"e{i}")
            log.record_audit(
                DecisionAudit(float(i), signal, [], NO_CANDIDATES, "v")
            )
        assert len(log) == 12_000
        assert [e.summary for e in log.events] == [
            f"e{i}" for i in range(12_000)
        ]
        assert [a.time for a in log.audits] == [
            float(i) for i in range(12_000)
        ]
        assert log.render().splitlines()[0] == log.events[0].render()
        assert log.render(limit=2).splitlines() == [
            log.events[-2].render(),
            log.events[-1].render(),
        ]

    def test_render_filters_and_limits(self):
        log = DecisionLog()
        log.record(1.0, DecisionKind.DETECTION, "det")
        log.record(2.0, DecisionKind.CANCELLATION, "can")
        only_cancel = log.render(kinds=[DecisionKind.CANCELLATION])
        assert "can" in only_cancel and "det" not in only_cancel
        assert "det" not in log.render(limit=1)

    def test_render_empty(self):
        assert "no decisions" in DecisionLog().render()

    def test_event_render_includes_details(self):
        log = DecisionLog()
        e = log.record(1.25, DecisionKind.CANCELLATION, "x", score=2.5)
        assert "score=2.5" in e.render()
        assert "t=   1.250s" in e.render()


class TestKindRoundTrips:
    """Every DecisionKind survives record -> query -> value round-trips."""

    @pytest.mark.parametrize("kind", list(DecisionKind))
    def test_value_round_trip(self, kind):
        assert DecisionKind(kind.value) is kind

    @pytest.mark.parametrize("kind", list(DecisionKind))
    def test_record_query_render(self, kind):
        log = DecisionLog()
        event = log.record(1.0, kind, f"event-{kind.value}", detail=1)
        assert log.events_of(kind) == [event]
        assert kind.value in event.render()

    def test_event_payload_round_trip_all_kinds(self):
        log = DecisionLog()
        for i, kind in enumerate(DecisionKind):
            log.record(float(i), kind, f"e-{kind.value}", index=i)
        rebuilt = [
            DecisionEvent(
                time=e.time,
                kind=DecisionKind(e.kind.value),
                summary=e.summary,
                details=dict(e.details),
            )
            for e in log.events
        ]
        assert rebuilt == log.events
        assert {e.kind for e in rebuilt} == set(DecisionKind)

    def test_adapt_kind_is_logged_by_adaptive_policy(self):
        from repro.core import (
            AdaptiveThresholdPolicy, AtroposConfig, OverloadDetector,
        )
        from repro.sim import Environment

        env = Environment()
        config = AtroposConfig(adaptive_thresholds=True)
        policy = AdaptiveThresholdPolicy(
            OverloadDetector(env, config), config, log := DecisionLog()
        )
        class _Flap:
            kind = "detector-flapping"
        policy.adapt(1.0, {"health_events": [_Flap()]})
        events = log.events_of(DecisionKind.ADAPT)
        assert len(events) == 1
        assert events[0].details["reason"] == "detector-flapping"


class TestAtroposTimeline:
    def test_end_to_end_timeline_on_case(self):
        from repro.baselines import controller_factory
        from repro.cases import get_case

        case = get_case("c4")
        result = case.run(
            controller_factory=controller_factory("atropos", case.slo_latency)
        )
        atropos = result.controller
        timeline = atropos.explain()
        assert "resource overload" in timeline
        assert "cancelled 'select_for_update'" in timeline
        kinds = {e.kind for e in atropos.decision_log.events}
        assert DecisionKind.DETECTION in kinds
        assert DecisionKind.CLASSIFICATION in kinds
        assert DecisionKind.CANCELLATION in kinds
        assert DecisionKind.REEXECUTION in kinds
