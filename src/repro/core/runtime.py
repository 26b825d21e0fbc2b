"""The ATROPOS runtime manager (paper §3.2).

Attributes resource usage to cancellable tasks via the three tracing APIs
and manages the two-mode timestamping scheme: coarse sampled timestamps
under normal operation, per-event timestamps while overload is suspected.
:class:`TracingController` is the controller base that wires the tracing
API to it (ATROPOS and pBox).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import AtroposConfig
from .controller import BaseController
from .ledger import UsageLedger
from .task import CancellableTask
from .types import ResourceHandle

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class ActivityTracker:
    """Tracks aggregate task-execution seconds per detection window.

    The estimator normalizes contention by the execution time spent in the
    window (paper §3.5: C_r = D_r / T_exec); this tracker integrates the
    number of live tasks over time.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._active = 0
        self._accum = 0.0
        self._last_change = env.now

    def _settle(self) -> None:
        now = self.env.now
        self._accum += self._active * (now - self._last_change)
        self._last_change = now

    # task_started / task_finished inline _settle: they run once per
    # task start and finish.
    def task_started(self) -> None:
        now = self.env.now
        self._accum += self._active * (now - self._last_change)
        self._last_change = now
        self._active += 1

    def task_finished(self) -> None:
        now = self.env.now
        self._accum += self._active * (now - self._last_change)
        self._last_change = now
        self._active = max(0, self._active - 1)

    @property
    def active(self) -> int:
        return self._active

    def window_task_seconds(self) -> float:
        self._settle()
        return self._accum

    def roll(self) -> None:
        self._settle()
        self._accum = 0.0


class RuntimeManager:
    """Tracks per-task resource usage for the ATROPOS controller.

    The five tracing entry points (``record_get`` ... ``record_wait_end``)
    each do their whole job in one frame: count the event, take the
    timestamp, update the (task, resource) record of the ledger in place
    and, for the three resource events, add the simulated tracing cost
    to the task's :attr:`~repro.core.task.CancellableTask.trace_debt`.
    They call into the ledger only to create a record or to list its
    task under the resource.
    """

    def __init__(self, env: "Environment", config: AtroposConfig) -> None:
        self.env = env
        self.config = config
        self.ledger = UsageLedger()
        self.activity = ActivityTracker(env)
        #: Fine-grained timestamping while overload is suspected (§3.2).
        self.fine_mode = False
        #: Total traced events (for overhead accounting/reporting).
        self.events_traced = 0
        self._last_sampled_stamp = env.now
        self._sample_interval = config.timestamp_sample_interval
        #: Simulated seconds one get / free / slow-by adds to the task's
        #: checkpoint debt, indexed by ``fine_mode``.
        self._trace_cost = (config.coarse_trace_cost, config.fine_trace_cost)

    # ------------------------------------------------------------------
    # Timestamping
    # ------------------------------------------------------------------
    def set_fine_mode(self, enabled: bool) -> None:
        """Two-mode timestamping: in coarse mode ``record_get`` /
        ``record_free`` stamp events with the clock quantized to the
        sampling interval (all events within an interval share one
        timestamp); in fine mode every event reads the clock."""
        self.fine_mode = enabled

    # ------------------------------------------------------------------
    # Tracing entry points
    # ------------------------------------------------------------------
    def record_get(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        self.events_traced += 1
        fine = self.fine_mode
        stamp = self.env.now
        if not fine:
            if stamp - self._last_sampled_stamp >= self._sample_interval:
                self._last_sampled_stamp = stamp - (
                    stamp % self._sample_interval
                )
            stamp = self._last_sampled_stamp
        ledger = self.ledger
        key = task.seq
        records = ledger.by_task.get(key)
        record = records.get(resource.name) if records is not None else None
        if record is None or not record.touched:
            record = ledger.touch(key, resource, record)
        record.acquired += amount
        record.aggregate.acquired += amount
        if not record.hold_depth:
            record.hold_since = stamp
        record.hold_depth += 1
        task.trace_debt += self._trace_cost[fine]

    def record_free(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        self.events_traced += 1
        fine = self.fine_mode
        stamp = self.env.now
        if not fine:
            if stamp - self._last_sampled_stamp >= self._sample_interval:
                self._last_sampled_stamp = stamp - (
                    stamp % self._sample_interval
                )
            stamp = self._last_sampled_stamp
        ledger = self.ledger
        key = task.seq
        records = ledger.by_task.get(key)
        record = records.get(resource.name) if records is not None else None
        if record is None or not record.touched:
            record = ledger.touch(key, resource, record)
        record.released += amount
        # Close the outermost hold interval; an unbalanced free is a no-op.
        if record.hold_depth:
            record.hold_depth -= 1
            if not record.hold_depth:
                duration = stamp - record.hold_since
                if duration > 0:
                    record.hold_time += duration
                    record.aggregate.hold_time += duration
        task.trace_debt += self._trace_cost[fine]

    def record_slow_by(
        self,
        task: CancellableTask,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        self.events_traced += 1
        ledger = self.ledger
        key = task.seq
        records = ledger.by_task.get(key)
        record = records.get(resource.name) if records is not None else None
        if record is None or not record.touched:
            record = ledger.touch(key, resource, record)
        aggregate = record.aggregate
        aggregate.wait_time += delay
        aggregate.wait_events += events
        task.trace_debt += self._trace_cost[self.fine_mode]

    def record_wait_start(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> None:
        """``task`` started queueing on ``resource`` (before the grant)."""
        self.events_traced += 1
        ledger = self.ledger
        key = task.seq
        records = ledger.by_task.get(key)
        record = records.get(resource.name) if records is not None else None
        if record is None:
            record = ledger.open(key, resource)
        if not record.waited:
            record.waited = True
            record.aggregate.waited[key] = record
        if not record.wait_depth:
            record.wait_since = self.env.now
        record.wait_depth += 1

    def record_wait_end(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        """Close an open wait; records the duration as slow-by time (one
        event) and returns it."""
        self.events_traced += 1
        ledger = self.ledger
        key = task.seq
        records = ledger.by_task.get(key)
        record = records.get(resource.name) if records is not None else None
        if record is None or not record.wait_depth:
            return 0.0
        record.wait_depth -= 1
        if record.wait_depth:
            return 0.0
        duration = self.env.now - record.wait_since
        if duration > 0:
            if not record.touched:
                ledger.touch(key, resource, record)
            aggregate = record.aggregate
            aggregate.wait_time += duration
            aggregate.wait_events += 1.0
        return duration

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------
    def roll_window(self) -> None:
        self.ledger.roll_window()
        self.activity.roll()


class TracingController(BaseController):
    """A controller whose tracing calls feed a :class:`RuntimeManager`.

    Shared by ATROPOS and pBox, which trace the same per-task usage
    signals.  The five tracing calls of Figure 6b *are* the runtime
    manager's entry points: they are bound per instance instead of
    delegated, so a traced event does not pay for a forwarding frame.
    Task start and finish go straight to the activity tracker and the
    ledger for the same reason.
    """

    traces_resources = True

    def __init__(self, env: "Environment", config: AtroposConfig) -> None:
        super().__init__(env)
        self.config = config
        self.runtime = runtime = RuntimeManager(env, config)
        self.get_resource = runtime.record_get
        self.free_resource = runtime.record_free
        self.slow_by_resource = runtime.record_slow_by
        self.begin_wait = runtime.record_wait_start
        self.end_wait = runtime.record_wait_end

    @property
    def slo_latency(self) -> float:
        return self.config.slo_latency

    def create_cancel(self, *args, **kwargs) -> CancellableTask:
        task = super().create_cancel(*args, **kwargs)
        self.runtime.activity.task_started()
        return task

    def free_cancel(self, task: CancellableTask) -> None:
        if task.seq in self.tasks:
            runtime = self.runtime
            runtime.activity.task_finished()
            runtime.ledger.forget_task(task.seq)
        super().free_cancel(task)
