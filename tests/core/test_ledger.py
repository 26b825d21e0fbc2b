"""Tests for the usage ledger."""

from repro.core import ResourceHandle, ResourceType

from .recorder import Recorder

LOCK = ResourceHandle("table_lock", ResourceType.LOCK)
MEM = ResourceHandle("buffer_pool", ResourceType.MEMORY)


class TestHoldTracker:
    """A (task, resource) hold runs from the get that opens it to the
    free that closes the outermost grant."""

    def test_single_hold(self):
        led = Recorder()
        led.record_get(1, LOCK, 1, now=1.0)
        assert led.current_hold(1, LOCK, now=4.0) == 3.0
        led.record_free(1, LOCK, 1, now=5.0)
        assert led.task_total(1, LOCK).hold_time == 4.0
        assert led.current_hold(1, LOCK, now=6.0) == 0.0

    def test_nested_holds_use_outermost(self):
        led = Recorder()
        led.record_get(1, LOCK, 1, now=1.0)
        led.record_get(1, LOCK, 1, now=2.0)
        led.record_free(1, LOCK, 1, now=3.0)  # still nested
        assert led.task_total(1, LOCK).hold_time == 0.0
        assert led.current_hold(1, LOCK, now=3.0) == 2.0
        led.record_free(1, LOCK, 1, now=5.0)  # outermost closes
        assert led.task_total(1, LOCK).hold_time == 4.0

    def test_unbalanced_free_is_safe(self):
        led = Recorder()
        led.record_free(1, LOCK, 1, now=1.0)
        assert led.task_total(1, LOCK).hold_time == 0.0
        assert led.current_hold(1, LOCK, now=2.0) == 0.0
        led.record_get(1, LOCK, 1, now=2.0)
        led.record_free(1, LOCK, 1, now=3.0)
        assert led.task_total(1, LOCK).hold_time == 1.0


class TestLedger:
    def test_get_accumulates_per_task_and_resource(self):
        led = Recorder()
        led.record_get(1, MEM, 10, now=0.0)
        led.record_get(1, MEM, 5, now=1.0)
        led.record_get(2, MEM, 3, now=1.0)
        assert led.task_total(1, MEM).acquired == 15
        assert led.task_total(2, MEM).acquired == 3
        assert led.resource_window(MEM).acquired == 18

    def test_free_records_hold_time(self):
        led = Recorder()
        led.record_get(1, LOCK, 1, now=2.0)
        led.record_free(1, LOCK, 1, now=7.0)
        assert led.task_total(1, LOCK).hold_time == 5.0
        assert led.resource_window(LOCK).hold_time == 5.0

    def test_slow_by_accumulates_wait(self):
        led = Recorder()
        led.record_slow_by(1, LOCK, delay=0.5)
        led.record_slow_by(2, LOCK, delay=0.25, events=2)
        assert led.resource_window(LOCK).wait_time == 0.75
        assert led.resource_window(LOCK).wait_events == 3
        # A slow-by alone lists the task under the resource.
        assert led.tasks_touching(LOCK) == [1, 2]

    def test_window_resets_but_total_persists(self):
        led = Recorder()
        led.record_get(1, MEM, 10, now=0.0)
        led.record_slow_by(1, MEM, delay=0.5)
        led.roll_window()
        window = led.resource_window(MEM)
        assert window.acquired == window.wait_time == window.wait_events == 0
        led.record_get(1, MEM, 5, now=1.0)
        assert led.resource_window(MEM).acquired == 5
        assert led.task_total(1, MEM).acquired == 15

    def test_current_hold(self):
        led = Recorder()
        led.record_get(1, LOCK, 1, now=3.0)
        assert led.current_hold(1, LOCK, now=10.0) == 7.0
        led.record_free(1, LOCK, 1, now=10.0)
        assert led.current_hold(1, LOCK, now=12.0) == 0.0

    def test_unknown_task_returns_zero_stats(self):
        led = Recorder()
        assert led.task_total(99, MEM).acquired == 0
        assert led.current_hold(99, MEM, now=1.0) == 0.0

    def test_tasks_touching(self):
        led = Recorder()
        led.record_get(1, MEM, 1, now=0.0)
        led.record_get(2, LOCK, 1, now=0.0)
        assert led.tasks_touching(MEM) == [1]
        assert led.tasks_touching(LOCK) == [2]

    def test_forget_task_drops_all_state(self):
        led = Recorder()
        led.record_get(1, MEM, 10, now=0.0)
        led.record_get(1, LOCK, 1, now=0.0)
        led.forget_task(1)
        assert led.task_total(1, MEM).acquired == 0
        assert led.ledger.record(1, LOCK) is None
        assert led.tasks_touching(MEM) == []
        # Resource counters persist (they describe the resource).
        assert led.resource_window(MEM).acquired == 10
