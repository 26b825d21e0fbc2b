"""Tests for the runtime manager: timestamp modes, activity tracking."""

import pytest

from repro.core import (
    AtroposConfig,
    BaseController,
    ResourceHandle,
    ResourceType,
    RuntimeManager,
)
from repro.core.runtime import TracingController
from repro.core.task import CancellableTask
from repro.sim import Environment

from .recorder import tracked_tasks


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def runtime(env):
    return RuntimeManager(
        env,
        AtroposConfig(
            timestamp_sample_interval=0.01,
            coarse_trace_cost=1e-6,
            fine_trace_cost=1e-5,
        ),
    )


LOCK = ResourceHandle("lock", ResourceType.LOCK)


def stamp(env, runtime):
    """The timestamp a get takes now: where the hold it opens starts."""
    task = CancellableTask(env, seq=1)
    runtime.record_get(task, LOCK, 1)
    since = runtime.ledger.record(task.seq, LOCK).hold_since
    runtime.ledger.forget_task(task.seq)
    return since


class TestTimestampModes:
    def test_coarse_mode_quantizes(self, env, runtime):
        env.run(until=0.0042)
        ts1 = stamp(env, runtime)
        env.run(until=0.0058)
        ts2 = stamp(env, runtime)
        # Same sampling interval -> same timestamp.
        assert ts1 == ts2

    def test_coarse_mode_advances_between_intervals(self, env, runtime):
        ts1 = stamp(env, runtime)
        env.run(until=0.05)
        ts2 = stamp(env, runtime)
        assert ts2 > ts1

    def test_fine_mode_is_exact(self, env, runtime):
        runtime.set_fine_mode(True)
        env.run(until=0.0042)
        assert stamp(env, runtime) == 0.0042

    def test_event_cost_depends_on_mode(self, env, runtime):
        controller = BaseController(env)
        res = controller.register_resource("r", ResourceType.LOCK)
        task = controller.create_cancel()
        runtime.record_get(task, res, 1)
        assert task.trace_debt == 1e-6
        runtime.set_fine_mode(True)
        runtime.record_free(task, res, 1)
        assert task.trace_debt == 1e-6 + 1e-5

    def test_events_traced_counter(self, env, runtime):
        controller = BaseController(env)
        res = controller.register_resource("r", ResourceType.LOCK)
        task = controller.create_cancel()
        runtime.record_get(task, res, 1)
        runtime.record_free(task, res, 1)
        runtime.record_slow_by(task, res, 0.1)
        runtime.record_wait_start(task, res)
        runtime.record_wait_end(task, res)
        assert runtime.events_traced == 5


class TestActivityTracker:
    def test_integrates_active_tasks(self, env, runtime):
        runtime.activity.task_started()
        env.run(until=1.0)
        runtime.activity.task_started()
        env.run(until=2.0)
        # 1 task for 1s + 2 tasks for 1s = 3 task-seconds.
        assert runtime.activity.window_task_seconds() == pytest.approx(3.0)

    def test_roll_resets_window(self, env, runtime):
        runtime.activity.task_started()
        env.run(until=1.0)
        runtime.roll_window()
        env.run(until=1.5)
        assert runtime.activity.window_task_seconds() == pytest.approx(0.5)

    def test_finish_stops_accumulation(self, env, runtime):
        runtime.activity.task_started()
        env.run(until=1.0)
        runtime.activity.task_finished()
        env.run(until=5.0)
        assert runtime.activity.window_task_seconds() == pytest.approx(1.0)

    def test_task_finished_forgets_ledger_state(self, env):
        controller = TracingController(env, AtroposConfig())
        res = controller.register_resource("r", ResourceType.MEMORY)
        t = controller.create_cancel()
        assert controller.runtime.activity.active == 1
        controller.get_resource(t, res, 10)
        controller.free_cancel(t)
        assert controller.runtime.activity.active == 0
        assert controller.runtime.ledger.record(t.seq, res) is None
        assert tracked_tasks(controller.runtime.ledger) == set()
