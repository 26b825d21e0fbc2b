"""The runtime's tracing entry points and the per-(task, resource)
ledger against the table-keyed reference.

``reference_ledger.TableLedger`` is the ledger as it was before the
records and ``TableRuntime`` the runtime in front of it before the
entry points were fused: every counter the ledger still keeps (a task's
usage since start, a resource's current window) and every open interval
must agree exactly -- floats with ``==``, ``tasks_touching`` as lists --
because the estimator's float sums, and through them every run digest,
depend on it; so must each task's tracing debt and the traced-event
count.  One level up, the estimator's contention levels and current
usages must equal its formulas as they read the reference's tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.core import AtroposConfig, ResourceHandle, ResourceType
from repro.core.estimator import Estimator

from .recorder import Recorder, tracked_tasks
from .reference_ledger import TableLedger, TableRuntime

LOCK = ResourceHandle("table_lock", ResourceType.LOCK)
MEM = ResourceHandle("buffer_pool", ResourceType.MEMORY)
CPU = ResourceHandle("cpu", ResourceType.CPU)
TASKS = (1, 2, 3)
RESOURCES = (LOCK, MEM, CPU)
_EPS = 1e-9

#: The cases of the perf/ workloads (one per resource type, all backends).
PERF_CASES = ("c1", "c5", "c7", "c9", "c12", "c14", "c16", "c18")

_amount = st.floats(min_value=0.0, max_value=10.0)
_op = st.one_of(
    st.tuples(
        st.sampled_from(["get", "free", "slow", "wait_start", "wait_end"]),
        st.sampled_from(TASKS),
        st.sampled_from(RESOURCES),
        _amount,
    ),
    st.tuples(st.just("forget"), st.sampled_from(TASKS)),
    st.tuples(st.just("roll")),
)


def _apply(ledger, op, now):
    kind = op[0]
    if kind == "roll":
        return ledger.roll_window()
    if kind == "forget":
        return ledger.forget_task(op[1])
    _, task, resource, value = op
    if kind == "get":
        return ledger.record_get(task, resource, value, now)
    if kind == "free":
        return ledger.record_free(task, resource, value, now)
    if kind == "slow":
        return ledger.record_slow_by(task, resource, value, events=value)
    if kind == "wait_start":
        return ledger.record_wait_start(task, resource, now)
    return ledger.record_wait_end(task, resource, now)


def _queries(ledger, now, open_hold_time):
    out = []
    for resource in RESOURCES:
        window = ledger.resource_window(resource)
        out.append((window.acquired, window.wait_time, window.wait_events,
                    window.hold_time))
        out.append(ledger.tasks_touching(resource))
        out.append(ledger.open_wait_time(resource, now))
        out.append(open_hold_time(resource, now))
        for task in TASKS:
            total = ledger.task_total(task, resource)
            out.append((total.acquired, total.released, total.hold_time))
            out.append(ledger.current_hold(task, resource, now))
            out.append(ledger.current_wait(task, resource, now))
    return out


def _estimates(new):
    """What the estimator reads off ``new``'s ledger: raw and normalized
    contention per resource, current usage per (task, resource)."""
    estimator = Estimator(new.env, new.runtime, AtroposConfig())
    out = []
    for resource in RESOURCES:
        out.append(estimator.contention_raw(resource))
        out.append(estimator.contention_norm(resource))
        for task in TASKS:
            out.append(estimator.current_usage(new.task(task), resource))
    return out


def _reference_estimates(ref, now, open_hold_time, exec_seconds):
    """The estimator's formulas as they read a ``UsageStats`` window and
    task total, evaluated on the reference's tables."""
    out = []
    for resource in RESOURCES:
        stats = ref.resource_window(resource)
        if resource.rtype is ResourceType.MEMORY:
            if stats.acquired > _EPS:
                raw = stats.wait_events / stats.acquired
                delay = stats.wait_time * min(1.0, raw)
            else:
                raw, delay = 0.0, stats.wait_time
        else:
            open_wait = ref.open_wait_time(resource, now)
            waiting = stats.wait_time + open_wait
            usage = stats.hold_time + open_hold_time(resource, now)
            if usage <= _EPS:
                raw = waiting / _EPS if waiting > _EPS else 0.0
            else:
                raw = waiting / usage
            delay = stats.wait_time + open_wait
        out.append(raw)
        out.append(
            min(1.0, delay / exec_seconds) if exec_seconds > _EPS else 0.0
        )
        for task in TASKS:
            total = ref.task_total(task, resource)
            if resource.rtype is ResourceType.MEMORY:
                out.append(max(0.0, total.acquired - total.released))
            elif resource.rtype in (ResourceType.LOCK, ResourceType.QUEUE):
                current = ref.current_hold(task, resource, now)
                out.append(current if current > 0 else total.hold_time)
            else:
                out.append(total.acquired)
    return out


class TestAgainstReference:
    @given(
        steps=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=0.5), _op),
            max_size=80,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_every_query_agrees_after_every_event(self, steps):
        new, ref = Recorder(), TableLedger()
        # One live task, so the window has execution time to normalize by.
        new.runtime.activity.task_started()

        def ref_open_hold_time(resource, now):
            # The estimator's pre-record formula, summed in touch order.
            total = 0.0
            for task in ref.tasks_touching(resource):
                total += ref.current_hold(task, resource, now)
            return total

        now = 0.0
        for delta, op in steps:
            now += delta
            new.env.now = now
            assert _apply(new, op, now) == _apply(ref, op, now)
            assert _queries(new, now, new.open_hold_time) == _queries(
                ref, now, ref_open_hold_time
            )
            exec_seconds = new.runtime.activity.window_task_seconds()
            assert _estimates(new) == _reference_estimates(
                ref, now, ref_open_hold_time, exec_seconds
            )


#: The runtime ops: the five entry points, with the clock moving in
#: steps below and across the 10 ms coarse sampling interval; mode
#: switches, window rolls and forgets between them.
_step = st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.01, 0.013, 0.05])
_event = st.tuples(
    st.sampled_from(["get", "free", "slow", "wait_start", "wait_end"]),
    st.sampled_from(TASKS),
    st.sampled_from(RESOURCES),
    _amount,
)
_runtime_op = st.one_of(
    _event,
    _event,
    st.tuples(st.just("mode"), st.booleans()),
    st.tuples(st.just("forget"), st.sampled_from(TASKS)),
    st.tuples(st.just("roll")),
)


def _apply_runtime(new, ref, op):
    """One op on both sides; returns (new result, reference result)."""
    kind = op[0]
    if kind == "mode":
        new.runtime.set_fine_mode(op[1])
        ref.fine_mode = op[1]
        return None, None
    if kind in ("roll", "forget"):
        return _apply(new, op, None), _apply(ref.ledger, op, None)
    _, task, resource, value = op
    runtime = new.runtime
    stub = new.task(task)
    if kind == "get":
        return (runtime.record_get(stub, resource, value),
                ref.record_get(task, resource, value))
    if kind == "free":
        return (runtime.record_free(stub, resource, value),
                ref.record_free(task, resource, value))
    if kind == "slow":
        return (runtime.record_slow_by(stub, resource, value, value),
                ref.record_slow_by(task, resource, value, value))
    if kind == "wait_start":
        return (runtime.record_wait_start(stub, resource),
                ref.record_wait_start(task, resource))
    return (runtime.record_wait_end(stub, resource),
            ref.record_wait_end(task, resource))


class TestFusedRuntime:
    """The one-frame entry points against the pre-fusion runtime: the
    same ledger (coarse and fine timestamps, nested holds, waits closed
    early or twice), the same debt per task, the same event count."""

    @given(steps=st.lists(st.tuples(_step, _runtime_op), max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_ledger_debt_and_count_agree_after_every_event(self, steps):
        config = AtroposConfig(coarse_trace_cost=4e-6, fine_trace_cost=5e-5)
        new, ref = Recorder(config, fine=False), TableRuntime(config)
        new.runtime.activity.task_started()

        def ref_open_hold_time(resource, now):
            total = 0.0
            for task in ref.ledger.tasks_touching(resource):
                total += ref.ledger.current_hold(task, resource, now)
            return total

        now = 0.0
        for delta, op in steps:
            now += delta
            new.env.now = ref.now = now
            got, want = _apply_runtime(new, ref, op)
            assert got == want
            assert _queries(new, now, new.open_hold_time) == _queries(
                ref.ledger, now, ref_open_hold_time
            )
            exec_seconds = new.runtime.activity.window_task_seconds()
            assert _estimates(new) == _reference_estimates(
                ref.ledger, now, ref_open_hold_time, exec_seconds
            )
            assert [new.task(t).trace_debt for t in TASKS] == [
                ref.trace_debt(t) for t in TASKS
            ]
            assert new.runtime.events_traced == ref.events_traced

    def test_debt_follows_the_mode_of_each_event(self):
        config = AtroposConfig(coarse_trace_cost=1e-6, fine_trace_cost=1e-5)
        rec = Recorder(config, fine=False)
        rec.record_get(1, LOCK, 1, now=0.0)
        rec.runtime.set_fine_mode(True)
        rec.record_free(1, LOCK, 1, now=0.001)
        rec.record_slow_by(1, LOCK, 0.5)
        rec.record_wait_start(1, LOCK, now=0.002)
        rec.record_wait_end(1, LOCK, now=0.003)
        # Waits are not charged; the three resource events are.
        assert rec.task(1).trace_debt == 1e-6 + 1e-5 + 1e-5
        assert rec.runtime.events_traced == 5


class TestForget:
    def test_reused_key_starts_from_zero_and_lists_last(self):
        led = Recorder()
        for task in (1, 2, 3):
            led.record_wait_start(task, LOCK, now=0.0)
            led.record_wait_end(task, LOCK, now=1.0)
            led.record_get(task, LOCK, 1, now=1.0)
        led.forget_task(1)
        assert led.tasks_touching(LOCK) == [2, 3]
        assert led.ledger.record(1, LOCK) is None
        assert led.current_hold(1, LOCK, now=5.0) == 0.0
        assert led.current_wait(1, LOCK, now=5.0) == 0.0

        led.record_wait_start(1, LOCK, now=5.0)
        # A wait alone is not a touch ...
        assert led.tasks_touching(LOCK) == [2, 3]
        assert led.open_wait_time(LOCK, now=6.0) == 1.0
        led.record_get(1, LOCK, 2, now=6.0)
        # ... the first counted event is, and the key re-enters last.
        assert led.tasks_touching(LOCK) == [2, 3, 1]
        total = led.task_total(1, LOCK)
        assert (total.acquired, total.released, total.hold_time) == (2, 0, 0)
        assert led.current_hold(1, LOCK, now=7.0) == 1.0
        # Resource counters describe the resource and persist.
        assert led.resource_window(LOCK).acquired == 5
        assert led.resource_window(LOCK).wait_events == 3

    def test_forget_is_idempotent_and_scoped_to_the_task(self):
        led = Recorder()
        led.record_get(1, MEM, 10, now=0.0)
        led.record_wait_start(2, LOCK, now=0.0)
        led.forget_task(1)
        led.forget_task(1)
        led.forget_task(99)
        assert led.tracked_tasks() == {2}
        assert led.open_wait_time(LOCK, now=2.0) == 2.0


@pytest.mark.parametrize("case_id", PERF_CASES)
def test_ledger_tracks_only_live_tasks_after_a_run(case_id):
    """The ledger's share of the conservation audit: every finished,
    cancelled or dropped task was forgotten, on all seven backends."""
    case = get_case(case_id)
    result = case.run(
        controller_factory(
            "atropos",
            case.slo_latency,
            atropos_overrides=dict(case.atropos_overrides),
        ),
        seed=0,
        duration=case.warmup + 1.0,
    )
    controller = result.controller
    assert controller.runtime.events_traced > 0
    assert tracked_tasks(controller.runtime.ledger) <= set(controller.tasks)
