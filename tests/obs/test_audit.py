"""Decision-audit trail and tracing/simulation non-interference tests.

The acceptance invariant: every cancellation the controller issues has a
matching audit record naming the contended resource, the detector signal
that triggered the cycle, and the ranked candidate evidence behind the
verdict.
"""

import pytest

from repro.core import (
    Atropos,
    AtroposConfig,
    GetNextProgress,
    ResourceType,
)
from repro.obs import Tracer, tracing
from repro.sim import Environment, Interrupt, RequestRecord, RequestStatus


def make_atropos(env, **overrides):
    settings = dict(
        slo_latency=0.05,
        detection_period=0.1,
        min_window_samples=5,
        cancel_cooldown=0.05,
        contention_threshold=0.25,
    )
    settings.update(overrides)
    return Atropos(env, AtroposConfig(**settings))


def feed_completions(atropos, n, latency, start=0.0):
    for i in range(n):
        finish = start + i * 0.001
        atropos.observe_completion(
            RequestRecord(
                request_id=i,
                op_name="op",
                client_id="c",
                arrival_time=finish - latency,
                finish_time=finish,
                status=RequestStatus.COMPLETED,
            )
        )


def run_cancellation_scenario(env):
    """Memory hog + SLO violations: the monitor cancels the hog."""
    atropos = make_atropos(env)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    holder = {}

    def body(env):
        progress = GetNextProgress(100)
        progress.advance(10)
        task = atropos.create_cancel(op_name="hog", progress=progress)
        holder["task"] = task
        atropos.get_resource(task, mem, 1000)
        try:
            yield env.timeout(1000.0)
        except Interrupt as exc:
            holder["signal"] = exc.cause
        atropos.free_cancel(task)

    env.process(body(env))
    env.run(until=1e-6)
    feed_completions(atropos, 20, latency=1.0)
    atropos.slow_by_resource(holder["task"], mem, delay=0.5, events=500)
    env.run(until=0.5)
    assert atropos.cancels_issued >= 1  # scenario sanity
    return atropos, holder


class TestAuditCompleteness:
    def test_every_cancellation_has_an_audit(self):
        atropos, holder = run_cancellation_scenario(Environment())
        cancelled = atropos.decision_log.cancellation_audits()
        assert len(cancelled) == atropos.cancels_issued
        audit = cancelled[0]
        # ...naming the contended resource,
        assert audit.culprit_resource == "pool"
        assert any(
            r.resource == "pool" and r.overloaded for r in audit.resources
        )
        # ...the detector signal that triggered the cycle,
        assert audit.detector.tail_latency > 0.05
        assert audit.detector.samples >= 5
        # ...and the ranked candidate evidence behind the verdict.
        assert audit.candidates
        selected = [c for c in audit.candidates if c.selected]
        assert len(selected) == 1
        assert selected[0].task_key == audit.cancelled_task_key
        assert selected[0].op_name == audit.cancelled_op_name == "hog"
        assert "pool" in selected[0].gains
        assert selected[0].score is not None

    def test_audit_for_task_lookup(self):
        atropos, holder = run_cancellation_scenario(Environment())
        key = holder["task"].key
        audit = atropos.decision_log.audit_for_task(key)
        assert audit is not None
        assert audit.verdict == "cancelled"
        assert atropos.decision_log.audit_for_task("no-such-key") is None

    def test_audit_payload_is_json_ready(self):
        import json

        atropos, _ = run_cancellation_scenario(Environment())
        for audit in atropos.decision_log.audits:
            payload = audit.to_payload()
            json.dumps(payload, sort_keys=True, allow_nan=False)
            assert payload["verdict"] in (
                "cancelled", "cancel-blocked", "no-candidate",
                "regular-overload",
            )

    def test_traced_run_mirrors_audits_into_tracer(self):
        tracer = Tracer()
        tracer.new_run("audit-run")
        env = Environment(tracer=tracer)
        atropos, _ = run_cancellation_scenario(env)
        assert len(tracer.audits) == len(atropos.decision_log.audits)
        decision_instants = [
            e for e in tracer.events
            if e["ph"] == "i" and e.get("cat") == "decision"
        ]
        assert len(decision_instants) == len(tracer.audits)
        assert any(
            e["name"].startswith("cancelled hog#")
            for e in decision_instants
        )

    def test_regular_overload_audited_without_candidates_selected(self):
        env = Environment()
        atropos = make_atropos(env)
        atropos.register_resource("pool", ResourceType.MEMORY)
        atropos.start()
        feed_completions(atropos, 20, latency=1.0)  # no contended resource
        env.run(until=0.35)
        assert atropos.regular_overloads >= 1
        audits = atropos.decision_log.audits
        assert audits
        assert all(a.verdict == "regular-overload" for a in audits)
        assert all(a.cancelled_task_key is None for a in audits)


class TestTracingNonInterference:
    def _lock_case_summary(self, tracer=None):
        from repro.cases import get_case

        case = get_case("c1")
        run = lambda: case.run(include_culprit=False, seed=1, duration=4.0)
        if tracer is None:
            return run()
        with tracing(tracer):
            return run()

    def test_traced_run_matches_untraced_summary(self):
        """Tracing must observe, never perturb: same seed, same results."""
        untraced = self._lock_case_summary()
        tracer = Tracer()
        traced = self._lock_case_summary(tracer)
        assert tracer.events  # the traced run actually traced
        assert traced.throughput == untraced.throughput
        assert traced.p99_latency == untraced.p99_latency
        assert traced.drop_rate == untraced.drop_rate

    def test_harness_attaches_and_labels_runs(self):
        tracer = Tracer(max_runs=1)
        with tracing(tracer):
            self._lock_case_summary(tracer=None)  # active tracer picks it up
            assert tracer.runs == ["run-1:seed=1"]
            # Second run exceeds max_runs: executes untraced.
            events_before = len(tracer.events)
            self._lock_case_summary(tracer=None)
        assert tracer.runs == ["run-1:seed=1"]
        assert len(tracer.events) == events_before

    def test_untraced_run_emits_nothing(self):
        from repro.obs import NULL_TRACER

        env = Environment()
        assert env.tracer is NULL_TRACER
        atropos, _ = run_cancellation_scenario(env)
        assert len(NULL_TRACER.events) == 0
