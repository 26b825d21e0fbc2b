"""The per-(task, resource) ledger against the table-keyed reference.

``reference_ledger.TableLedger`` is the ledger as it was before the
records: every query of the two must agree exactly -- floats with
``==``, ``tasks_touching`` as lists -- because the estimator's float
sums, and through them every run digest, depend on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.core import ResourceHandle, ResourceType
from repro.core.ledger import UsageLedger, UsageStats

from .reference_ledger import TableLedger

LOCK = ResourceHandle("table_lock", ResourceType.LOCK)
MEM = ResourceHandle("buffer_pool", ResourceType.MEMORY)
TASKS = (1, 2, 3)
RESOURCES = (LOCK, MEM)

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
        out.append(ledger.resource_total(resource))
        out.append(ledger.resource_window(resource))
        out.append(ledger.tasks_touching(resource))
        out.append(ledger.open_wait_time(resource, now))
        out.append(open_hold_time(resource, now))
        for task in TASKS:
            out.append(ledger.task_total(task, resource))
            out.append(ledger.task_window(task, resource))
            out.append(ledger.current_hold(task, resource, now))
            out.append(ledger.current_wait(task, resource, now))
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
        new, ref = UsageLedger(), TableLedger()

        def ref_open_hold_time(resource, now):
            # The estimator's pre-record formula, summed in touch order.
            total = 0.0
            for task in ref.tasks_touching(resource):
                total += ref.current_hold(task, resource, now)
            return total

        now = 0.0
        for delta, op in steps:
            now += delta
            assert _apply(new, op, now) == _apply(ref, op, now)
            assert _queries(new, now, new.open_hold_time) == _queries(
                ref, now, ref_open_hold_time
            )


class TestForget:
    def test_reused_key_starts_from_zero_and_lists_last(self):
        led = UsageLedger()
        for task in (1, 2, 3):
            led.record_wait_start(task, LOCK, now=0.0)
            led.record_wait_end(task, LOCK, now=1.0)
            led.record_get(task, LOCK, 1, now=1.0)
        led.forget_task(1)
        assert led.tasks_touching(LOCK) == [2, 3]
        assert led.task_total(1, LOCK) == UsageStats()
        assert led.current_hold(1, LOCK, now=5.0) == 0.0
        assert led.current_wait(1, LOCK, now=5.0) == 0.0

        led.record_wait_start(1, LOCK, now=5.0)
        # A wait alone is not a touch ...
        assert led.tasks_touching(LOCK) == [2, 3]
        assert led.open_wait_time(LOCK, now=6.0) == 1.0
        led.record_get(1, LOCK, 2, now=6.0)
        # ... the first counted event is, and the key re-enters last.
        assert led.tasks_touching(LOCK) == [2, 3, 1]
        assert led.task_total(1, LOCK) == UsageStats(acquired=2)
        assert led.current_hold(1, LOCK, now=7.0) == 1.0
        # Resource aggregates describe the resource and persist.
        assert led.resource_total(LOCK).acquired == 5

    def test_forget_is_idempotent_and_scoped_to_the_task(self):
        led = UsageLedger()
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
    assert controller.runtime.ledger.tracked_tasks() <= set(controller.tasks)
