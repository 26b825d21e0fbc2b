"""Tests for the assembled Atropos controller (monitor loop behavior)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Atropos,
    AtroposConfig,
    GetNextProgress,
    ResourceType,
    TaskKind,
)
from repro.core.decision_log import DecisionKind
from repro.core.task import TaskState
from repro.core.types import CancelSignal
from repro.sim import Environment, Interrupt, RequestRecord, RequestStatus


@pytest.fixture
def env():
    return Environment()


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


def hog_task(env, atropos, resource, amount, progress_done=0.1):
    """Spawn a live task holding `amount` of `resource`."""
    holder = {}

    def body(env):
        progress = GetNextProgress(100)
        progress.advance(progress_done * 100)
        task = atropos.create_cancel(op_name="hog", progress=progress)
        holder["task"] = task
        atropos.get_resource(task, resource, amount)
        try:
            yield env.timeout(1000.0)
        except Interrupt as exc:
            holder["cancelled_at"] = env.now
            holder["signal"] = exc.cause
        atropos.free_cancel(task)

    env.process(body(env))
    env.run(until=env.now + 1e-6)
    return holder


def test_monitor_cancels_culprit_on_resource_overload(env):
    atropos = make_atropos(env)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    holder = hog_task(env, atropos, mem, amount=1000)
    # Latency violations + memory contention in the window.
    feed_completions(atropos, 20, latency=1.0)
    atropos.slow_by_resource(holder["task"], mem, delay=0.5, events=500)
    env.run(until=0.5)
    assert atropos.cancels_issued == 1
    assert "cancelled_at" in holder
    assert holder["signal"].resource is mem


def test_no_cancel_without_latency_violation(env):
    # A loose SLO that neither the tail nor the hog's age violates: the
    # contention signal alone must not trigger cancellation (§3.3 gates
    # everything behind the end-to-end performance signal).
    atropos = make_atropos(env, slo_latency=10.0)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    holder = hog_task(env, atropos, mem, amount=1000)
    feed_completions(atropos, 20, latency=0.001)  # healthy latencies
    atropos.slow_by_resource(holder["task"], mem, delay=0.5, events=500)
    env.run(until=0.5)
    assert atropos.cancels_issued == 0


def test_regular_overload_classified_not_cancelled(env):
    """Latency violation with no contended resource -> regular overload."""
    atropos = make_atropos(env)
    atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    hog = hog_task(env, atropos, atropos.resources["pool"], amount=0)
    feed_completions(atropos, 20, latency=1.0)
    env.run(until=0.35)
    assert atropos.cancels_issued == 0
    assert atropos.regular_overloads >= 1


def test_fine_mode_follows_overload_state(env):
    atropos = make_atropos(env)
    atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    assert not atropos.runtime.fine_mode
    feed_completions(atropos, 20, latency=1.0)
    env.run(until=0.15)
    assert atropos.runtime.fine_mode
    # Window ages out (detection_window=1.0): back to coarse mode.
    env.run(until=2.5)
    assert not atropos.runtime.fine_mode


def test_oldest_request_age_ignores_background_tasks(env):
    atropos = make_atropos(env)

    def background(env):
        atropos.create_cancel(kind=TaskKind.BACKGROUND, op_name="purge")
        yield env.timeout(1000.0)

    env.process(background(env))
    env.run(until=1.0)
    assert atropos._oldest_request_age() == 0.0

    def request(env):
        atropos.create_cancel(kind=TaskKind.REQUEST, op_name="query")
        yield env.timeout(1000.0)

    env.process(request(env))
    env.run(until=3.0)
    assert atropos._oldest_request_age() == pytest.approx(2.0)


_age_op = st.one_of(
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.3)),
    st.tuples(st.sampled_from(["request", "background"])),
    st.tuples(
        st.sampled_from(["free", "cancel", "reexecute"]),
        st.integers(min_value=0, max_value=20),
    ),
)


@given(ops=st.lists(_age_op, max_size=60))
@settings(max_examples=200, deadline=None)
def test_oldest_request_age_matches_a_scan_of_every_task(ops):
    """The first live request in creation order is the oldest: the same
    float as the maximum age over all live requests."""
    env = Environment()
    atropos = make_atropos(env)
    for op in ops:
        kind = op[0]
        live = list(atropos.tasks.values())
        if kind == "advance":
            env.run(until=env.now + op[1])
        elif kind == "request":
            atropos.create_cancel(op_name="query")
        elif kind == "background":
            atropos.create_cancel(kind=TaskKind.BACKGROUND, op_name="purge")
        elif live:
            task = live[op[1] % len(live)]
            if kind == "cancel":
                if task.state is TaskState.RUNNING:
                    task.begin_cancel(CancelSignal())
            else:
                atropos.free_cancel(task)
                if kind == "reexecute":
                    atropos.create_cancel(
                        kind=task.kind, op_name=task.op_name
                    ).mark_non_cancellable()
        scan = max(
            (
                t.age
                for t in atropos.tasks.values()
                if t.alive and t.kind is TaskKind.REQUEST
            ),
            default=0.0,
        )
        assert atropos._oldest_request_age() == scan


def test_is_calm_reflects_contention(env):
    atropos = make_atropos(env)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    holder = hog_task(env, atropos, mem, amount=100)
    assert atropos._is_calm()
    env.run(until=1.0)
    atropos.slow_by_resource(holder["task"], mem, delay=2.0, events=100)
    assert not atropos._is_calm()


def test_start_is_idempotent(env):
    atropos = make_atropos(env)
    atropos.start()
    atropos.start()
    env.run(until=0.3)  # one monitor loop, no crash


def test_last_assessment_exposed(env):
    atropos = make_atropos(env)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    holder = hog_task(env, atropos, mem, amount=1000)
    feed_completions(atropos, 20, latency=1.0)
    atropos.slow_by_resource(holder["task"], mem, delay=0.5, events=500)
    env.run(until=0.15)
    assert atropos.last_assessment is not None
    assert atropos.last_assessment.is_resource_overload


def test_cancellation_disabled_still_detects(env):
    atropos = make_atropos(env, cancellation_enabled=False)
    mem = atropos.register_resource("pool", ResourceType.MEMORY)
    atropos.start()
    holder = hog_task(env, atropos, mem, amount=1000)
    feed_completions(atropos, 20, latency=1.0)
    atropos.slow_by_resource(holder["task"], mem, delay=0.5, events=500)
    env.run(until=0.5)
    assert atropos.cancels_issued == 0
    assert atropos.runtime.fine_mode  # tracing escalated anyway


class TestRegularOverload:
    """§3.3: regular (demand) overload is out of scope for cancellation;
    ATROPOS classifies and counts it and acts on nothing."""

    @pytest.mark.slow
    def test_demand_overload_is_only_counted(self):
        """MySQL at ~2x capacity with no culprit: pure demand overload."""
        from repro.apps.mysql import MySQL, light_mix
        from repro.experiments import run_simulation
        from repro.workloads import OpenLoopSource, Workload

        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=3500.0, mix=light_mix(rng))]
            ),
            controller_factory=lambda env: Atropos(
                env, AtroposConfig(slo_latency=0.02)
            ),
            duration=8.0,
            warmup=2.0,
        )
        atropos = result.controller
        assert atropos.regular_overloads > 0
        assert atropos.cancels_issued == 0
        assert result.drop_rate == 0.0
        summaries = {
            event.summary
            for event in atropos.decision_log.events_of(
                DecisionKind.CLASSIFICATION
            )
        }
        assert "regular (demand) overload" in summaries
