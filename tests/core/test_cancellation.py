"""Tests for the cancellation manager: cooldown, fairness, re-execution."""

import pytest

from repro.core import (
    AtroposConfig,
    BaseController,
    CancellationManager,
    TaskKind,
)
from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


def live_task(env, controller, **kwargs):
    holder = {}

    def body(env):
        holder["task"] = controller.create_cancel(**kwargs)
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            holder["interrupted_at"] = env.now

    env.process(body(env))
    env.run(until=env.now + 1e-6)
    return holder


def test_cancel_invokes_default_initiator(env):
    controller = BaseController(env)
    mgr = CancellationManager(env, AtroposConfig(), calm_check=lambda: True)
    holder = live_task(env, controller)
    assert mgr.cancel(holder["task"], resource=None, score=1.0)
    env.run(until=env.now + 0.01)
    assert "interrupted_at" in holder
    assert len(mgr.log) == 1


def test_cooldown_blocks_rapid_cancels(env):
    controller = BaseController(env)
    config = AtroposConfig(cancel_cooldown=1.0)
    mgr = CancellationManager(env, config, calm_check=lambda: True)
    t1 = live_task(env, controller)["task"]
    t2 = live_task(env, controller)["task"]
    assert mgr.cancel(t1, None, 1.0)
    assert mgr.in_cooldown
    assert not mgr.cancel(t2, None, 1.0)
    env.run(until=env.now + 2.0)
    assert not mgr.in_cooldown
    assert mgr.cancel(t2, None, 1.0)


def test_cancel_disabled_by_config(env):
    controller = BaseController(env)
    config = AtroposConfig(cancellation_enabled=False)
    mgr = CancellationManager(env, config, calm_check=lambda: True)
    t = live_task(env, controller)["task"]
    assert not mgr.cancel(t, None, 1.0)
    assert mgr.log == []


def test_cancel_refuses_non_cancellable_task(env):
    controller = BaseController(env)
    mgr = CancellationManager(env, AtroposConfig(), calm_check=lambda: True)
    t = live_task(env, controller, cancellable=False)["task"]
    assert not mgr.cancel(t, None, 1.0)


def test_custom_initiator_used(env):
    controller = BaseController(env)
    mgr = CancellationManager(env, AtroposConfig(), calm_check=lambda: True)
    calls = []
    mgr.set_initiator(lambda task, signal: calls.append((task, signal)))
    t = live_task(env, controller)["task"]
    mgr.cancel(t, None, 2.5)
    assert len(calls) == 1
    assert calls[0][1].score == 2.5


class TestReexecutionGate:
    def run_gate(self, env, mgr, task, arrival_time):
        result = {}

        def driver(env):
            decision = yield from mgr.reexecution_gate(task, arrival_time)
            result["decision"] = decision
            result["time"] = env.now

        env.process(driver(env))
        env.run()
        return result

    def test_retry_when_calm(self, env):
        controller = BaseController(env)
        config = AtroposConfig(
            reexec_stability_window=0.5, reexec_check_period=0.1
        )
        mgr = CancellationManager(env, config, calm_check=lambda: True)
        t = live_task(env, controller)["task"]
        t.process.interrupt()  # stop the long sleep so env.run() terminates
        result = self.run_gate(env, mgr, t, arrival_time=env.now)
        assert result["decision"] == "retry"
        # Waited out the stability window first.
        assert result["time"] >= 0.5

    def test_drop_when_never_calm(self, env):
        controller = BaseController(env)
        config = AtroposConfig(
            slo_latency=0.1, reexec_slo_multiple=5.0, reexec_check_period=0.05
        )
        mgr = CancellationManager(env, config, calm_check=lambda: False)
        t = live_task(env, controller)["task"]
        t.process.interrupt()
        arrival = env.now
        result = self.run_gate(env, mgr, t, arrival_time=arrival)
        assert result["decision"] == "drop"
        # Dropped once the SLO budget (0.5s) was exhausted.
        assert result["time"] == pytest.approx(arrival + 0.5, abs=0.1)

    def test_retry_when_contention_clears_midway(self, env):
        controller = BaseController(env)
        config = AtroposConfig(
            slo_latency=10.0,
            reexec_stability_window=0.2,
            reexec_check_period=0.05,
        )
        calm_after = 1.0
        mgr = CancellationManager(
            env, config, calm_check=lambda: env.now >= calm_after
        )
        t = live_task(env, controller)["task"]
        t.process.interrupt()
        result = self.run_gate(env, mgr, t, arrival_time=env.now)
        assert result["decision"] == "retry"
        assert result["time"] >= calm_after + 0.2

    def test_background_task_force_retried_after_max_wait(self, env):
        controller = BaseController(env)
        config = AtroposConfig(
            background_reexec_delay=1.0,
            background_max_wait=2.0,
            reexec_check_period=0.1,
        )
        mgr = CancellationManager(env, config, calm_check=lambda: False)
        t = live_task(env, controller, kind=TaskKind.BACKGROUND)["task"]
        t.process.interrupt()
        result = self.run_gate(env, mgr, t, arrival_time=env.now)
        assert result["decision"] == "retry"
        # Minimum deferral (1.0) + bounded wait (2.0).
        assert result["time"] == pytest.approx(3.0, abs=0.2)

    def test_background_minimum_deferral_applies_even_when_calm(self, env):
        """A cancelled background task must not re-enter immediately just
        because its own absence made the system look calm."""
        controller = BaseController(env)
        config = AtroposConfig(
            background_reexec_delay=2.0,
            reexec_stability_window=0.1,
            reexec_check_period=0.05,
        )
        mgr = CancellationManager(env, config, calm_check=lambda: True)
        t = live_task(env, controller, kind=TaskKind.BACKGROUND)["task"]
        t.process.interrupt()
        result = self.run_gate(env, mgr, t, arrival_time=env.now)
        assert result["decision"] == "retry"
        assert result["time"] >= 2.0

    def test_unstable_calm_does_not_retry_early(self, env):
        """Calm must hold for the whole stability window."""
        controller = BaseController(env)
        config = AtroposConfig(
            slo_latency=1.0,
            reexec_slo_multiple=5.0,
            reexec_stability_window=0.4,
            reexec_check_period=0.1,
        )
        # Calm flickers: true only on even tenths of a second.
        mgr = CancellationManager(
            env,
            config,
            calm_check=lambda: int(env.now * 10) % 2 == 0,
        )
        t = live_task(env, controller)["task"]
        t.process.interrupt()
        result = self.run_gate(env, mgr, t, arrival_time=env.now)
        # Never stable for 0.4s -> eventually dropped at the SLO budget.
        assert result["decision"] == "drop"


class TestThreadLevelCancellation:
    """§3.6: tasks without an application initiator need the opt-in flag."""

    def test_refused_without_flag(self, env):
        controller = BaseController(env)
        mgr = CancellationManager(
            env,
            AtroposConfig(allow_thread_level_cancel=False),
            calm_check=lambda: True,
        )
        t = live_task(env, controller)["task"]
        t.requires_thread_cancel = True
        assert not mgr.cancel(t, None, 1.0)
        assert mgr.log == []

    def test_allowed_with_flag(self, env):
        controller = BaseController(env)
        mgr = CancellationManager(
            env,
            AtroposConfig(allow_thread_level_cancel=True),
            calm_check=lambda: True,
        )
        t = live_task(env, controller)["task"]
        t.requires_thread_cancel = True
        assert mgr.cancel(t, None, 1.0)

    def test_case_c9_sets_the_flag(self):
        from repro.cases import get_case

        case = get_case("c9")
        assert case.atropos_overrides.get("allow_thread_level_cancel")

    def test_c9_without_flag_cannot_cancel_php(self):
        from repro.baselines import controller_factory
        from repro.cases import get_case

        case = get_case("c9")
        result = case.run(
            controller_factory=controller_factory(
                "atropos", case.slo_latency  # no overrides: flag off
            )
        )
        cancelled = {e.op_name for e in result.controller.cancellation.log}
        assert "php_script" not in cancelled
