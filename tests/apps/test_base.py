"""Tests for the Application base: dispatch, tracing debt, checkpoints."""

import pytest

from repro.apps.base import Application, Operation
from repro.baselines import SYSTEMS, controller_factory
from repro.core import (
    Atropos,
    AtroposConfig,
    BaseController,
    NullController,
    ResourceType,
)
from repro.core.types import DropRequest
from repro.sim import Environment, Rng
from repro.sim.resources import SyncLock, ThreadPool


class TinyApp(Application):
    name = "tiny"

    def __init__(self, env, controller, rng):
        super().__init__(env, controller, rng)
        self.lock = SyncLock(env, "tiny.lock")
        self.pool = ThreadPool(env, "tiny.pool", workers=1)
        self.r_lock = self.register_resource(
            "lock", ResourceType.LOCK, self.lock
        )
        self.r_pool = self.register_resource(
            "pool", ResourceType.QUEUE, self.pool
        )
        self.register_handler("op", self.op)

    def op(self, task):
        yield self.env.timeout(0.001)
        yield from self.checkpoint(task)


@pytest.fixture
def env():
    return Environment()


def run_proc(env, gen):
    p = env.process(gen)
    env.run()
    return p


class TestDispatch:
    def test_execute_routes_to_handler(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        task = app.controller.create_cancel()
        run_proc(env, app.execute(task, Operation("op")))

    def test_unknown_operation_raises(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        task = app.controller.create_cancel()
        with pytest.raises(KeyError, match="no operation"):
            app.execute(task, Operation("nope"))

    def test_operations_listing(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        assert app.operations() == ["op"]

    def test_resource_names_are_app_scoped(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        assert app.r_lock.name == "tiny.lock"


class TestTracingDebt:
    def test_debt_accumulates_and_is_paid_at_checkpoint(self, env):
        atropos = Atropos(
            env,
            AtroposConfig(coarse_trace_cost=0.01),  # exaggerated
        )
        app = TinyApp(env, atropos, Rng(0))
        task = atropos.create_cancel()
        app.trace_get(task, app.r_lock)
        app.trace_free(task, app.r_lock)
        assert task.trace_debt == pytest.approx(0.02)

        def body(env):
            yield from app.checkpoint(task)

        start = env.now
        run_proc(env, body(env))
        assert env.now - start == pytest.approx(0.02)
        assert task.trace_debt == 0.0

    def test_null_controller_accrues_no_debt(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        task = app.controller.create_cancel()
        app.trace_get(task, app.r_lock)
        assert task.trace_debt == 0.0

    @pytest.mark.parametrize("system", ["pbox", "protego"])
    def test_other_tracing_controllers_accrue_no_debt(self, env, system):
        app = TinyApp(env, controller_factory(system)(env), Rng(0))
        task = app.controller.create_cancel()
        app.trace_get(task, app.r_lock)
        app.trace_slow_by(task, app.r_lock, 0.5)
        app.trace_free(task, app.r_lock)
        assert task.trace_debt == 0.0


TRACING_HOOKS = ("get_resource", "free_resource", "slow_by_resource")


class TestTracesResourcesFact:
    """``traces_resources`` lets the app skip the tracing round trip; it
    must be True for every controller that would have recorded it."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stated_by_exactly_the_controllers_that_record(self, env, system):
        controller = controller_factory(system)(env)
        records = any(
            getattr(controller, hook).__func__
            is not getattr(BaseController, hook)
            for hook in TRACING_HOOKS
        )
        assert controller.traces_resources is records

    def test_recording_controller_still_sees_every_tracing_call(self, env):
        seen = []

        class Recorder(NullController):
            traces_resources = True

            def get_resource(self, task, resource, amount=1.0):
                seen.append(("get", resource.name, amount))

            def free_resource(self, task, resource, amount=1.0):
                seen.append(("free", resource.name, amount))

            def slow_by_resource(self, task, resource, delay, events=1.0):
                seen.append(("slow", resource.name, delay, events))

        app = TinyApp(env, Recorder(env), Rng(0))
        task = app.controller.create_cancel()
        app.trace_get(task, app.r_lock, 2.0)
        app.trace_slow_by(task, app.r_pool, 0.5, events=3.0)
        app.trace_free(task, app.r_lock, 2.0)
        assert seen == [
            ("get", "tiny.lock", 2.0),
            ("slow", "tiny.pool", 0.5, 3.0),
            ("free", "tiny.lock", 2.0),
        ]


class TestCheckpoint:
    def test_checkpoint_raises_drop_when_controller_says_so(self, env):
        class Dropper(NullController):
            def should_drop(self, task):
                return True

        app = TinyApp(env, Dropper(env), Rng(0))
        task = app.controller.create_cancel()

        def body(env):
            try:
                yield from app.checkpoint(task)
            except DropRequest:
                return "dropped"

        p = run_proc(env, body(env))
        assert p.value == "dropped"

    def test_checkpoint_applies_throttle_delay(self, env):
        class Throttler(NullController):
            def throttle_delay(self, task):
                return 0.5

        app = TinyApp(env, Throttler(env), Rng(0))
        task = app.controller.create_cancel()

        def body(env):
            yield from app.checkpoint(task)

        run_proc(env, body(env))
        assert env.now == pytest.approx(0.5)

    def test_checkpoint_is_free_when_nothing_pending(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        task = app.controller.create_cancel()

        def body(env):
            yield from app.checkpoint(task)
            yield env.timeout(0)

        run_proc(env, body(env))
        assert env.now == 0.0


class TestAcquireHelpers:
    def test_release_lock_is_idempotent(self, env):
        app = TinyApp(env, NullController(env), Rng(0))
        task = app.controller.create_cancel()

        def body(env):
            grant = yield from app.acquire_lock(task, app.lock, app.r_lock)
            app.release_lock(task, grant, app.r_lock)
            app.release_lock(task, grant, app.r_lock)  # no error

        run_proc(env, body(env))
        assert app.lock.holders == []

    def test_wait_events_reach_atropos_ledger(self, env):
        atropos = Atropos(env, AtroposConfig())
        app = TinyApp(env, atropos, Rng(0))

        def holder(env):
            task = atropos.create_cancel(op_name="holder")
            grant = yield from app.acquire_lock(task, app.lock, app.r_lock)
            try:
                yield env.timeout(1.0)
            finally:
                app.release_lock(task, grant, app.r_lock)

        def waiter(env):
            yield env.timeout(0.1)
            task = atropos.create_cancel(op_name="waiter")
            grant = yield from app.acquire_lock(task, app.lock, app.r_lock)
            app.release_lock(task, grant, app.r_lock)

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=0.5)
        # The waiter's open wait is visible in the ledger mid-convoy.
        window = atropos.runtime.ledger.aggregate(app.r_lock)
        assert window.open_wait_time(0.5) > 0.3
