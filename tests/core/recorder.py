"""Drive the runtime's tracing entry points with small-int task keys.

The ledger is written only through :class:`~repro.core.runtime.
RuntimeManager`, whose entry points take task objects and read the
clock.  :class:`Recorder` gives tests the ledger-shaped API instead --
``record_get(task, resource, amount, now)`` with ``task`` a small int,
and every query keyed the same way -- which is also the API of
``reference_ledger.TableLedger``, so one op list drives both.  Each call
first moves the clock to ``now``; the runtime starts in fine mode, so
every timestamp is exactly ``now``.  Nothing under ``src/`` imports it.
"""

from repro.core.config import AtroposConfig
from repro.core.runtime import RuntimeManager
from repro.sim import Environment


class StubTask:
    """What the runtime reads of a task: its ``seq`` and its debt."""

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.trace_debt = 0.0


class Recorder:
    def __init__(self, config=None, fine: bool = True) -> None:
        self.env = Environment()
        self.runtime = RuntimeManager(self.env, config or AtroposConfig())
        self.runtime.set_fine_mode(fine)
        self.ledger = self.runtime.ledger
        self.tasks = {}

    def task(self, name: int) -> StubTask:
        """The stub behind ``name``, whose ``seq`` -- the ledger's key --
        is ``name`` (made on first use, then kept)."""
        task = self.tasks.get(name)
        if task is None:
            task = self.tasks[name] = StubTask(name)
        return task

    # -- recording -----------------------------------------------------
    def record_get(self, name, resource, amount, now) -> None:
        self.env.now = now
        self.runtime.record_get(self.task(name), resource, amount)

    def record_free(self, name, resource, amount, now) -> None:
        self.env.now = now
        self.runtime.record_free(self.task(name), resource, amount)

    def record_slow_by(self, name, resource, delay, events=1.0) -> None:
        self.runtime.record_slow_by(self.task(name), resource, delay, events)

    def record_wait_start(self, name, resource, now) -> None:
        self.env.now = now
        self.runtime.record_wait_start(self.task(name), resource)

    def record_wait_end(self, name, resource, now) -> float:
        self.env.now = now
        return self.runtime.record_wait_end(self.task(name), resource)

    def roll_window(self) -> None:
        self.ledger.roll_window()

    def forget_task(self, name) -> None:
        self.ledger.forget_task(name)

    # -- queries -------------------------------------------------------
    def task_total(self, name, resource):
        return self.ledger.task_total(name, resource)

    def task_window(self, name, resource):
        return self.ledger.task_window(name, resource)

    def current_hold(self, name, resource, now) -> float:
        return self.ledger.current_hold(name, resource, now)

    def current_wait(self, name, resource, now) -> float:
        return self.ledger.current_wait(name, resource, now)

    def resource_total(self, resource):
        return self.ledger.resource_total(resource)

    def resource_window(self, resource):
        return self.ledger.resource_window(resource)

    def open_wait_time(self, resource, now) -> float:
        return self.ledger.open_wait_time(resource, now)

    def open_hold_time(self, resource, now) -> float:
        return self.ledger.open_hold_time(resource, now)

    def tasks_touching(self, resource) -> list:
        return self.ledger.tasks_touching(resource)

    def tracked_tasks(self) -> set:
        return self.ledger.tracked_tasks()
