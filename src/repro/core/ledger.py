"""Per-task, per-resource usage accounting (paper §3.2).

The runtime manager records every ``get`` / ``free`` / ``slow-by`` event
into this ledger.  Counters are kept twice: cumulative since task start,
and per detection window (the estimator consumes window deltas so that
contention reflects *current* behaviour, not history).

Layout: one :class:`TaskUsage` record per (task, resource), reached
through the task's own record map, and one :class:`ResourceUsage` per
resource holding the aggregates plus the records of the tasks that
touched it and of the tasks that waited on it.  A traced event is two
dictionary lookups and a handful of attribute updates; forgetting a
task costs as much as the resources it touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .types import ResourceHandle


@dataclass
class UsageStats:
    """Raw counters for one (task, resource) or one resource aggregate."""

    #: Units acquired (pages for MEMORY, grants for LOCK/QUEUE, seconds
    #: for CPU, bytes for IO).
    acquired: float = 0.0
    #: Units released.
    released: float = 0.0
    #: Seconds of delay attributed to this resource (lock wait, queue
    #: wait, eviction stall, run-queue wait, device queueing).
    wait_time: float = 0.0
    #: Number of slow-by events (evictions for MEMORY).
    wait_events: float = 0.0
    #: Seconds the resource was held, over completed hold intervals.
    hold_time: float = 0.0

    @property
    def held(self) -> float:
        """Units currently held (never negative even with noisy tracing)."""
        return max(0.0, self.acquired - self.released)

    def add(self, other: "UsageStats") -> None:
        self.acquired += other.acquired
        self.released += other.released
        self.wait_time += other.wait_time
        self.wait_events += other.wait_events
        self.hold_time += other.hold_time

    def copy(self) -> "UsageStats":
        return UsageStats(
            acquired=self.acquired,
            released=self.released,
            wait_time=self.wait_time,
            wait_events=self.wait_events,
            hold_time=self.hold_time,
        )

    def reset(self) -> None:
        self.acquired = 0.0
        self.released = 0.0
        self.wait_time = 0.0
        self.wait_events = 0.0
        self.hold_time = 0.0


@dataclass(slots=True)
class HoldTracker:
    """Tracks the open holding interval for a (task, resource) pair.

    Application tasks hold a given resource through nested or repeated
    grants; we track the outermost interval (depth counting), which is the
    right granularity for "how long has this task been monopolizing the
    resource".
    """

    open_depth: int = 0
    open_since: Optional[float] = None

    def on_get(self, now: float) -> None:
        if self.open_depth == 0:
            self.open_since = now
        self.open_depth += 1

    def on_free(self, now: float) -> float:
        """Returns the completed hold duration (0 while still nested)."""
        if self.open_depth == 0:
            return 0.0
        self.open_depth -= 1
        if self.open_depth == 0 and self.open_since is not None:
            duration = now - self.open_since
            self.open_since = None
            return duration
        return 0.0

    def current_hold(self, now: float) -> float:
        if self.open_since is None:
            return 0.0
        return now - self.open_since


class _Counters:
    """Cumulative and current-window counters, side by side.

    The fields are those of :class:`UsageStats`, twice (``w_`` = this
    detection window); queries copy them out into a ``UsageStats``.
    """

    __slots__ = (
        "acquired", "released", "wait_time", "wait_events", "hold_time",
        "w_acquired", "w_released", "w_wait_time", "w_wait_events",
        "w_hold_time",
    )

    def __init__(self) -> None:
        self.acquired = self.released = 0.0
        self.wait_time = self.wait_events = self.hold_time = 0.0
        self.reset_window()

    def reset_window(self) -> None:
        self.w_acquired = self.w_released = 0.0
        self.w_wait_time = self.w_wait_events = self.w_hold_time = 0.0

    def total(self) -> UsageStats:
        return UsageStats(
            self.acquired, self.released, self.wait_time,
            self.wait_events, self.hold_time,
        )

    def window(self) -> UsageStats:
        return UsageStats(
            self.w_acquired, self.w_released, self.w_wait_time,
            self.w_wait_events, self.w_hold_time,
        )


class ResourceUsage(_Counters):
    """One resource: aggregates plus the live tasks using it.

    Both maps are insertion-ordered (first counted event / first wait)
    and entries leave only when the task is forgotten: the estimator
    sums open intervals over them, and a float sum depends on its order.
    """

    __slots__ = ("touched", "waited")

    def __init__(self) -> None:
        super().__init__()
        #: task key -> record, for tasks with a get / free / slow-by.
        self.touched: Dict[int, TaskUsage] = {}
        #: task key -> record, for tasks that ever queued on it.
        self.waited: Dict[int, TaskUsage] = {}


class TaskUsage(_Counters):
    """One (task, resource) pair: counters and the two open intervals."""

    __slots__ = ("aggregate", "epoch", "touched", "hold", "wait")

    def __init__(self, aggregate: ResourceUsage, epoch: int) -> None:
        super().__init__()
        self.aggregate = aggregate
        #: Window the ``w_`` counters belong to; stale means all zero.
        self.epoch = epoch
        #: Listed in ``aggregate.touched`` (a wait alone does not count).
        self.touched = False
        #: Open hold interval, from the first get / free on.
        self.hold: Optional[HoldTracker] = None
        #: Open wait interval; set once the task is in ``aggregate.waited``.
        self.wait: Optional[HoldTracker] = None

    def current_hold(self, now: float) -> float:
        return self.hold.current_hold(now) if self.hold is not None else 0.0


class UsageLedger:
    """Windowed + cumulative usage accounting across tasks and resources."""

    def __init__(self) -> None:
        #: task key -> that task's records, by resource.
        self._tasks: Dict[int, Dict[ResourceHandle, TaskUsage]] = {}
        #: resource -> aggregate record (kept for the ledger's lifetime).
        self._resources: Dict[ResourceHandle, ResourceUsage] = {}
        #: Current detection window.  Task records compare their own
        #: epoch against it and reset lazily; rolling touches no record.
        self._epoch = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, task_key: int, resource: ResourceHandle
    ) -> Optional[TaskUsage]:
        """The live (task, resource) record, or None before any event."""
        records = self._tasks.get(task_key)
        return records.get(resource) if records is not None else None

    def _open(self, task_key: int, resource: ResourceHandle) -> TaskUsage:
        """Create the (task, resource) record on the pair's first event."""
        records = self._tasks.get(task_key)
        if records is None:
            records = self._tasks[task_key] = {}
        aggregate = self._resources.get(resource)
        if aggregate is None:
            aggregate = self._resources[resource] = ResourceUsage()
        record = records[resource] = TaskUsage(aggregate, self._epoch)
        return record

    def _counted(self, task_key: int, resource: ResourceHandle) -> TaskUsage:
        """The record for a get / free / slow-by: created if need be, its
        window counters current, the task listed under the resource."""
        records = self._tasks.get(task_key)
        record = records.get(resource) if records is not None else None
        if record is None:
            record = self._open(task_key, resource)
        elif record.epoch != self._epoch:
            record.reset_window()
            record.epoch = self._epoch
        if not record.touched:
            record.touched = True
            record.aggregate.touched[task_key] = record
        return record

    def record_get(
        self, task_key: int, resource: ResourceHandle, amount: float, now: float
    ) -> None:
        record = self._counted(task_key, resource)
        aggregate = record.aggregate
        record.acquired += amount
        record.w_acquired += amount
        aggregate.acquired += amount
        aggregate.w_acquired += amount
        if record.hold is None:
            record.hold = HoldTracker()
        record.hold.on_get(now)

    def record_free(
        self, task_key: int, resource: ResourceHandle, amount: float, now: float
    ) -> None:
        record = self._counted(task_key, resource)
        aggregate = record.aggregate
        record.released += amount
        record.w_released += amount
        aggregate.released += amount
        aggregate.w_released += amount
        if record.hold is None:
            record.hold = HoldTracker()
        duration = record.hold.on_free(now)
        if duration > 0:
            record.hold_time += duration
            record.w_hold_time += duration
            aggregate.hold_time += duration
            aggregate.w_hold_time += duration

    def record_slow_by(
        self,
        task_key: int,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        record = self._counted(task_key, resource)
        aggregate = record.aggregate
        record.wait_time += delay
        record.w_wait_time += delay
        aggregate.wait_time += delay
        aggregate.w_wait_time += delay
        record.wait_events += events
        record.w_wait_events += events
        aggregate.wait_events += events
        aggregate.w_wait_events += events

    # ------------------------------------------------------------------
    # Open waits (in-progress queueing on a resource)
    # ------------------------------------------------------------------
    def record_wait_start(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> None:
        """A task started waiting on ``resource`` (before the grant).

        Open waits let the estimator see a convoy *while it is forming*:
        blocked tasks never reach the grant point where closed wait time
        would be recorded.
        """
        record = self.record(task_key, resource)
        if record is None:
            record = self._open(task_key, resource)
        if record.wait is None:
            record.wait = HoldTracker()
            record.aggregate.waited[task_key] = record
        record.wait.on_get(now)

    def record_wait_end(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        """Close an open wait; records the duration as slow-by time."""
        record = self.record(task_key, resource)
        if record is None or record.wait is None:
            return 0.0
        duration = record.wait.on_free(now)
        if duration > 0:
            self.record_slow_by(task_key, resource, duration)
        return duration

    def current_wait(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        record = self.record(task_key, resource)
        if record is None or record.wait is None:
            return 0.0
        return record.wait.current_hold(now)

    def open_wait_time(self, resource: ResourceHandle, now: float) -> float:
        """Sum of all in-progress wait durations on ``resource``."""
        aggregate = self._resources.get(resource)
        total = 0.0
        if aggregate is not None:
            for record in aggregate.waited.values():
                total += record.wait.current_hold(now)
        return total

    def open_hold_time(self, resource: ResourceHandle, now: float) -> float:
        """Sum of all in-progress hold durations on ``resource``."""
        aggregate = self._resources.get(resource)
        total = 0.0
        if aggregate is not None:
            for record in aggregate.touched.values():
                if record.hold is not None:
                    total += record.hold.current_hold(now)
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def task_total(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        record = self.record(task_key, resource)
        return record.total() if record is not None else UsageStats()

    def task_window(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        record = self.record(task_key, resource)
        if record is None or record.epoch != self._epoch:
            return UsageStats()
        return record.window()

    def resource_total(self, resource: ResourceHandle) -> UsageStats:
        aggregate = self._resources.get(resource)
        return aggregate.total() if aggregate is not None else UsageStats()

    def resource_window(self, resource: ResourceHandle) -> UsageStats:
        aggregate = self._resources.get(resource)
        return aggregate.window() if aggregate is not None else UsageStats()

    def current_hold(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        record = self.record(task_key, resource)
        return record.current_hold(now) if record is not None else 0.0

    def tasks_touching(self, resource: ResourceHandle) -> list:
        """Task keys with any recorded activity on ``resource``."""
        aggregate = self._resources.get(resource)
        return list(aggregate.touched) if aggregate is not None else []

    def tracked_tasks(self) -> set:
        """Task keys the ledger holds any state for.  Conservation: once
        finished tasks are forgotten this is a subset of the live ones."""
        keys = set(self._tasks)
        for aggregate in self._resources.values():
            keys.update(aggregate.touched, aggregate.waited)
        return keys

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------
    def roll_window(self) -> None:
        """Start a new detection window (zeroes windowed counters).

        Task records go stale by epoch; the handful of resource
        aggregates are reset here so a traced event checks one epoch.
        """
        self._epoch += 1
        for aggregate in self._resources.values():
            aggregate.reset_window()

    def forget_task(self, task_key: int) -> None:
        """Drop all state for a finished task (bounds memory)."""
        records = self._tasks.pop(task_key, None)
        if records is None:
            return
        for record in records.values():
            if record.touched:
                del record.aggregate.touched[task_key]
            if record.wait is not None:
                del record.aggregate.waited[task_key]
