"""Drive the runtime's tracing entry points with small-int task keys.

The ledger is written only through :class:`~repro.core.runtime.
RuntimeManager`, whose entry points take task objects and read the
clock.  :class:`Recorder` gives tests the ledger-shaped API instead --
``record_get(task, resource, amount, now)`` with ``task`` a small int,
and every query keyed the same way -- which is also the API of
``reference_ledger.TableLedger``, so one op list drives both.  Each
call first moves the clock to ``now``; the runtime starts in fine mode,
so every timestamp is exactly ``now``.  The ledger offers no queries
beyond what the estimator reads; the ones tests ask are answered here
from its records.  Nothing under ``src/`` imports it.
"""

from repro.core.config import AtroposConfig
from repro.core.ledger import ResourceUsage, TaskUsage
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
    def task_total(self, name, resource) -> TaskUsage:
        """The (task, resource) record: usage since the task started
        (an empty record before any event)."""
        record = self.ledger.record(name, resource)
        return record if record is not None else TaskUsage(ResourceUsage())

    def current_hold(self, name, resource, now) -> float:
        record = self.ledger.record(name, resource)
        return record.current_hold(now) if record is not None else 0.0

    def current_wait(self, name, resource, now) -> float:
        record = self.ledger.record(name, resource)
        if record is None or not record.wait_depth:
            return 0.0
        return now - record.wait_since

    def resource_window(self, resource) -> ResourceUsage:
        """The resource's record: its usage over the current window."""
        return self.ledger.aggregate(resource)

    def open_wait_time(self, resource, now) -> float:
        return self.ledger.aggregate(resource).open_wait_time(now)

    def open_hold_time(self, resource, now) -> float:
        return self.ledger.aggregate(resource).open_hold_time(now)

    def tasks_touching(self, resource) -> list:
        """Task keys with a get / free / slow-by on ``resource``, in
        first-touch order."""
        return list(self.ledger.aggregate(resource).touched)

    def tracked_tasks(self) -> set:
        return tracked_tasks(self.ledger)


def tracked_tasks(ledger) -> set:
    """Task keys ``ledger`` holds any state for.  Conservation: once
    finished tasks are forgotten this is a subset of the live ones."""
    keys = set(ledger.by_task)
    for aggregate in ledger._resources.values():
        keys.update(aggregate.touched, aggregate.waited)
    return keys
