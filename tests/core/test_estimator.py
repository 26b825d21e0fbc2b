"""Tests for contention-level and resource-gain estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AtroposConfig,
    Estimator,
    GetNextProgress,
    ResourceType,
    RuntimeManager,
)
from repro.core.controller import BaseController
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def setup(env):
    config = AtroposConfig()
    runtime = RuntimeManager(env, config)
    estimator = Estimator(env, runtime, config)
    controller = BaseController(env)
    return runtime, estimator, controller


def live_task(env, controller, progress=None, **kwargs):
    holder = {}

    def body(env):
        holder["task"] = controller.create_cancel(progress=progress, **kwargs)
        yield env.timeout(1000.0)

    env.process(body(env))
    env.run(until=env.now + 1e-6)
    return holder["task"]


def advance(env, dt):
    env.run(until=env.now + dt)


class TestMemoryContention:
    def test_eviction_ratio(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        task = live_task(env, controller)
        runtime.record_get(task, mem, 100)
        runtime.record_slow_by(task, mem, delay=0.1, events=50)
        # 50 evictions per 100 pages acquired -> contention 0.5.
        assert estimator.contention_raw(mem) == pytest.approx(0.5)

    def test_no_acquisitions_means_no_contention(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        assert estimator.contention_raw(mem) == 0.0

    def test_normalized_contention_scales_with_exec_time(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        task = live_task(env, controller)
        runtime.activity.task_started()
        advance(env, 1.0)  # 1 task-second of execution in the window
        runtime.record_get(task, mem, 100)
        runtime.record_slow_by(task, mem, delay=0.5, events=100)
        # Eviction ratio 1.0, stall 0.5s over ~1s exec -> norm ~0.5.
        assert estimator.contention_norm(mem) == pytest.approx(0.5, abs=0.05)


class TestLockContention:
    def test_wait_over_use_ratio(self, env, setup):
        runtime, estimator, controller = setup
        lock = controller.register_resource("tbl", ResourceType.LOCK)
        holder = live_task(env, controller)
        waiter = live_task(env, controller)
        runtime.record_get(holder, lock, 1)
        advance(env, 2.0)
        runtime.record_free(holder, lock, 1)  # used 2s
        runtime.record_slow_by(waiter, lock, delay=4.0)
        assert estimator.contention_raw(lock) == pytest.approx(2.0)

    def test_open_hold_counts_as_usage(self, env, setup):
        runtime, estimator, controller = setup
        lock = controller.register_resource("tbl", ResourceType.LOCK)
        holder = live_task(env, controller)
        runtime.record_get(holder, lock, 1)
        advance(env, 2.0)
        runtime.record_slow_by(holder, lock, delay=1.0)
        # Open hold of 2s counts as usage -> ratio 0.5.
        assert estimator.contention_raw(lock) == pytest.approx(0.5)

    def test_wait_with_no_usage_is_severe(self, env, setup):
        runtime, estimator, controller = setup
        lock = controller.register_resource("tbl", ResourceType.LOCK)
        waiter = live_task(env, controller)
        runtime.record_slow_by(waiter, lock, delay=1.0)
        assert estimator.contention_raw(lock) > 100.0


class TestResourceGain:
    def test_memory_gain_uses_future_multiplier(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        prog = GetNextProgress(total_rows=100)
        prog.advance(10)  # 10% done -> multiplier 9
        task = live_task(env, controller, progress=prog)
        runtime.record_get(task, mem, 50)
        runtime.record_free(task, mem, 10)  # holds 40 pages
        assert estimator.resource_gain(task, mem) == pytest.approx(40 * 9.0)

    def test_nearly_done_task_has_small_gain(self, env, setup):
        """The Query A vs Query B example of §3.4."""
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        prog_a = GetNextProgress(100)
        prog_a.advance(90)  # 90% done
        prog_b = GetNextProgress(100)
        prog_b.advance(10)  # 10% done
        a = live_task(env, controller, progress=prog_a)
        b = live_task(env, controller, progress=prog_b)
        runtime.record_get(a, mem, 60)  # A holds more...
        runtime.record_get(b, mem, 30)
        # ...but B has the larger future gain.
        assert estimator.resource_gain(b, mem) > estimator.resource_gain(a, mem)

    def test_lock_gain_paper_example(self, env, setup):
        """Held 1s at 40% progress -> gain 1.5s (§3.4)."""
        runtime, estimator, controller = setup
        lock = controller.register_resource("tbl", ResourceType.LOCK)
        prog = GetNextProgress(100)
        prog.advance(40)
        task = live_task(env, controller, progress=prog)
        runtime.record_get(task, lock, 1)
        advance(env, 1.0)
        assert estimator.resource_gain(task, lock) == pytest.approx(1.5)

    def test_current_usage_ignores_progress(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        prog = GetNextProgress(100)
        prog.advance(90)
        task = live_task(env, controller, progress=prog)
        runtime.record_get(task, mem, 60)
        assert estimator.current_usage(task, mem) == 60

    def test_cpu_gain_uses_consumed_seconds(self, env, setup):
        runtime, estimator, controller = setup
        cpu = controller.register_resource("cpu", ResourceType.CPU)
        task = live_task(env, controller)  # UnknownProgress -> 0.5 -> x1
        runtime.record_get(task, cpu, 3.0)
        assert estimator.resource_gain(task, cpu) == pytest.approx(3.0)


class TestAssessment:
    def test_assess_reports_overloaded_resources(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        task = live_task(env, controller)
        runtime.activity.task_started()
        advance(env, 1.0)
        runtime.record_get(task, mem, 100)
        runtime.record_slow_by(task, mem, delay=0.9, events=100)
        assess = estimator.assess([mem], [task])
        assert assess.is_resource_overload
        assert assess.most_contended().resource is mem

    def test_assess_without_contention_is_regular(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        task = live_task(env, controller)
        runtime.activity.task_started()
        advance(env, 1.0)
        runtime.record_get(task, mem, 100)  # no evictions
        assess = estimator.assess([mem], [task])
        assert not assess.is_resource_overload

    def test_assess_respects_use_future_gain_flag(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        prog = GetNextProgress(100)
        prog.advance(10)
        task = live_task(env, controller, progress=prog)
        runtime.record_get(task, mem, 10)
        future = estimator.assess([mem], [task], use_future_gain=True)
        current = estimator.assess([mem], [task], use_future_gain=False)
        assert future.tasks[0].gain(mem) == pytest.approx(90.0)
        assert current.tasks[0].gain(mem) == pytest.approx(10.0)


class TestWindowRoll:
    def test_roll_clears_window_contention(self, env, setup):
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        task = live_task(env, controller)
        runtime.record_get(task, mem, 100)
        runtime.record_slow_by(task, mem, delay=0.5, events=100)
        assert estimator.contention_raw(mem) > 0
        runtime.roll_window()
        assert estimator.contention_raw(mem) == 0.0
        # But gains (cumulative) survive the roll.
        assert estimator.resource_gain(task, mem) > 0


class TestConcentration:
    """Resource vs regular overload: the gain-concentration discriminator."""

    def _assess(self, env, setup, rtype, gains_by_task):
        runtime, estimator, controller = setup
        res = controller.register_resource("res", rtype)
        tasks = []
        for gain in gains_by_task:
            task = live_task(env, controller)
            if rtype is ResourceType.MEMORY:
                runtime.record_get(task, res, gain)
            elif rtype is ResourceType.IO:
                runtime.record_get(task, res, gain)
            else:
                # Time-typed: open a hold of the given duration.
                runtime.record_get(task, res, 1)
                runtime.ledger.record(task.seq, res).hold_since = (
                    env.now - gain
                )
            tasks.append(task)
        return estimator.assess([res], tasks), res

    def test_time_typed_monopolist_is_concentrated(self, env, setup):
        # One task holding the queue for 2s (>> SLO 0.1*1.5).
        assessment, _ = self._assess(
            env, setup, ResourceType.QUEUE, [2.0, 2.0, 2.0]
        )
        report = assessment.resources[0]
        assert report.concentrated

    def test_time_typed_uniform_small_gains_are_demand(self, env, setup):
        # Everyone holds for ~5ms: aggregate demand, no culprit.
        assessment, _ = self._assess(
            env, setup, ResourceType.QUEUE, [0.005] * 10
        )
        assert not assessment.resources[0].concentrated

    def test_memory_skewed_gains_concentrated(self, env, setup):
        assessment, _ = self._assess(
            env, setup, ResourceType.MEMORY, [2000, 3, 2, 4, 3, 2]
        )
        assert assessment.resources[0].concentrated

    def test_memory_uniform_gains_not_concentrated(self, env, setup):
        assessment, _ = self._assess(
            env, setup, ResourceType.MEMORY, [10, 11, 9, 10, 12, 10]
        )
        assert not assessment.resources[0].concentrated

    def test_memory_single_gainer_concentrated(self, env, setup):
        assessment, _ = self._assess(env, setup, ResourceType.MEMORY, [500])
        assert assessment.resources[0].concentrated
        assert assessment.resources[0].gain_skew == float("inf")

    def test_no_gainers_not_concentrated(self, env, setup):
        runtime, estimator, controller = setup
        res = controller.register_resource("res", ResourceType.MEMORY)
        assessment = estimator.assess([res], [])
        assert not assessment.resources[0].concentrated

    def test_is_resource_overload_requires_concentration(self, env, setup):
        """Contended but unconcentrated -> regular overload."""
        runtime, estimator, controller = setup
        res = controller.register_resource("q", ResourceType.QUEUE)
        tasks = []
        for _ in range(10):
            task = live_task(env, controller)
            runtime.activity.task_started()
            tasks.append(task)
        advance(env, 1.0)
        for task in tasks:
            # Everyone waits a lot (contended) but holds only briefly.
            runtime.record_slow_by(task, res, delay=0.4)
            runtime.record_get(task, res, 1)
            runtime.ledger.record(task.seq, res).hold_since = env.now - 0.005
        assessment = estimator.assess([res], tasks)
        assert assessment.resources[0].overloaded
        assert not assessment.resources[0].concentrated
        assert not assessment.is_resource_overload


#: One resource per type, so every usage formula is exercised.
_RTYPES = list(ResourceType)
_ledger_op = st.one_of(
    st.tuples(
        st.sampled_from(["get", "get", "free", "slow", "wait_start", "wait_end"]),
        st.integers(min_value=0, max_value=5),  # task
        st.integers(min_value=0, max_value=len(_RTYPES) - 1),  # resource
        # Few distinct amounts, so equal usages (ties) are common.
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 5.0]),
    ),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.004, 0.01, 0.3])),
    st.tuples(st.just("roll")),
    st.tuples(st.just("fine"), st.booleans()),
)


def random_ledger(ops, progress):
    """A runtime, estimator and six live tasks after ``ops``."""
    env = Environment()
    config = AtroposConfig()
    runtime = RuntimeManager(env, config)
    estimator = Estimator(env, runtime, config)
    controller = BaseController(env)
    resources = [
        controller.register_resource(f"r{i}", rtype)
        for i, rtype in enumerate(_RTYPES)
    ]
    tasks = []
    for done in progress:
        model = GetNextProgress(100)
        model.advance(done * 100)
        tasks.append(controller.create_cancel(progress=model))
        runtime.activity.task_started()
    for op in ops:
        kind = op[0]
        if kind == "advance":
            advance(env, op[1])
        elif kind == "roll":
            runtime.roll_window()
        elif kind == "fine":
            runtime.set_fine_mode(op[1])
        else:
            task, resource = tasks[op[1]], resources[op[2]]
            if kind == "get":
                runtime.record_get(task, resource, op[3])
            elif kind == "free":
                runtime.record_free(task, resource, op[3])
            elif kind == "slow":
                runtime.record_slow_by(task, resource, op[3] / 10, op[3])
            elif kind == "wait_start":
                runtime.record_wait_start(task, resource)
            else:
                runtime.record_wait_end(task, resource)
    return controller, estimator, resources, tasks


class TestGainsFromTouchedRecords:
    """``assess`` reads gains off each resource's touched records; with
    a gain tap it walks every (task, resource) pair.  An identity tap
    must not change a single float or its place."""

    @given(
        ops=st.lists(_ledger_op, max_size=60),
        progress=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
        ),
        chosen=st.lists(
            st.integers(min_value=0, max_value=5), unique=True, max_size=6
        ),
        use_future_gain=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_tap_gives_the_same_assessment(
        self, ops, progress, chosen, use_future_gain
    ):
        _, estimator, resources, tasks = random_ledger(ops, progress)
        # Any subset, in any order: tasks the ledger knows and tasks it
        # does not, like the live-task list of a real run.
        subset = [tasks[i] for i in chosen]
        fast = estimator.assess(resources, subset, use_future_gain)
        estimator.gain_tap = lambda now, gain: gain
        walked = estimator.assess(resources, subset, use_future_gain)
        assert [list(r.gains.items()) for r in fast.tasks] == [
            list(r.gains.items()) for r in walked.tasks
        ]
        assert [r.progress for r in fast.tasks] == [
            r.progress for r in walked.tasks
        ]
        assert fast.resources == walked.resources


class TestTopConsumer:
    def test_a_tie_goes_to_the_lower_seq(self, env, setup):
        """Creation order is ``seq`` order: among equal usages the task
        created first wins, whatever order the tasks touched the
        resource in."""
        runtime, estimator, controller = setup
        mem = controller.register_resource("pool", ResourceType.MEMORY)
        first, second, third = (live_task(env, controller) for _ in range(3))
        assert (first.seq, second.seq, third.seq) == (1, 2, 3)
        runtime.record_get(third, mem, 50)
        runtime.record_get(second, mem, 50)
        runtime.record_get(first, mem, 10)
        assert estimator.top_consumer(mem, controller.tasks) is second
        runtime.record_get(third, mem, 1)
        assert estimator.top_consumer(mem, controller.tasks) is third
