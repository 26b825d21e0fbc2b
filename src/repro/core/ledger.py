"""Per-task, per-resource usage accounting (paper §3.2).

The runtime manager records every ``get`` / ``free`` / ``slow-by`` event
and every wait into this ledger.  Counters are kept twice: cumulative
since task start, and per detection window (the estimator consumes
window deltas so that contention reflects *current* behaviour, not
history).

Layout: one :class:`TaskUsage` record per (task, resource), reached
through the task's own record map (keyed by resource name), and one
:class:`ResourceUsage` per resource holding the aggregates plus the
records of the tasks that touched it and of the tasks that waited on it.
The ledger owns the layout and the queries; the writers are the five
tracing entry points of :class:`~repro.core.runtime.RuntimeManager`,
which update a record in place (two dictionary lookups and a handful of
attribute updates) and call back here only to create a record or to
bring it into the current window.  Forgetting a task costs as much as
the resources it touched.

A resource is identified by its name: a controller registers one
:class:`~repro.core.types.ResourceHandle` per name.
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
        self.w_acquired = self.w_released = 0.0
        self.w_wait_time = self.w_wait_events = self.w_hold_time = 0.0

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
        #: task seq -> record, for tasks with a get / free / slow-by.
        self.touched: Dict[int, TaskUsage] = {}
        #: task seq -> record, for tasks that ever queued on it.
        self.waited: Dict[int, TaskUsage] = {}


class TaskUsage(_Counters):
    """One (task, resource) pair: counters and the two open intervals.

    An interval is a depth and a start: application tasks hold a
    resource through nested or repeated grants, and the outermost
    interval (from the get that opened it to the free that closed it)
    is the right granularity for "how long has this task been
    monopolizing the resource".  The start is meaningful only while the
    depth is positive.
    """

    __slots__ = (
        "aggregate", "epoch", "touched", "waited",
        "hold_depth", "hold_since", "wait_depth", "wait_since",
    )

    def __init__(self, aggregate: ResourceUsage) -> None:
        # The counters of _Counters.__init__, set here: a record is
        # created per (task, resource), about twice per request.
        self.acquired = self.released = 0.0
        self.wait_time = self.wait_events = self.hold_time = 0.0
        self.w_acquired = self.w_released = 0.0
        self.w_wait_time = self.w_wait_events = self.w_hold_time = 0.0
        self.aggregate = aggregate
        #: Window the ``w_`` counters belong to; any other value means
        #: all zero.  -1 until the first counted event, so that event
        #: takes :meth:`UsageLedger.countable` and lists the task.
        self.epoch = -1
        #: Listed in ``aggregate.touched`` (a wait alone does not count).
        self.touched = False
        #: Listed in ``aggregate.waited``.
        self.waited = False
        self.hold_depth = 0
        self.hold_since = 0.0
        self.wait_depth = 0
        self.wait_since = 0.0

    def current_hold(self, now: float) -> float:
        return now - self.hold_since if self.hold_depth else 0.0

    def current_wait(self, now: float) -> float:
        return now - self.wait_since if self.wait_depth else 0.0


class UsageLedger:
    """Windowed + cumulative usage accounting across tasks and resources."""

    def __init__(self) -> None:
        #: task seq -> that task's records, by resource name.  Read
        #: directly by the runtime's tracing entry points.
        self.by_task: Dict[int, Dict[str, TaskUsage]] = {}
        #: resource name -> aggregate record (kept for the ledger's
        #: lifetime).
        self._resources: Dict[str, ResourceUsage] = {}
        #: Current detection window.  Task records compare their own
        #: epoch against it and reset lazily; rolling touches no record.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Records (the runtime's slow path)
    # ------------------------------------------------------------------
    def record(
        self, task_key: int, resource: ResourceHandle
    ) -> Optional[TaskUsage]:
        """The live (task, resource) record, or None before any event."""
        records = self.by_task.get(task_key)
        return records.get(resource.name) if records is not None else None

    def open(self, task_key: int, resource: ResourceHandle) -> TaskUsage:
        """Create the (task, resource) record on the pair's first event."""
        records = self.by_task.get(task_key)
        if records is None:
            records = self.by_task[task_key] = {}
        aggregate = self._resources.get(resource.name)
        if aggregate is None:
            aggregate = self._resources[resource.name] = ResourceUsage()
        record = records[resource.name] = TaskUsage(aggregate)
        return record

    def countable(
        self,
        task_key: int,
        resource: ResourceHandle,
        record: Optional[TaskUsage],
    ) -> TaskUsage:
        """The record for a get / free / slow-by, given the caller's own
        lookup (``None`` creates it): its window counters current, the
        task listed under the resource."""
        if record is None:
            record = self.open(task_key, resource)
            record.epoch = self.epoch
        elif record.epoch != self.epoch:
            record.reset_window()
            record.epoch = self.epoch
        if not record.touched:
            record.touched = True
            record.aggregate.touched[task_key] = record
        return record

    def aggregate(self, resource: ResourceHandle) -> Optional[ResourceUsage]:
        """The resource's aggregate record, or None before any event."""
        return self._resources.get(resource.name)

    # ------------------------------------------------------------------
    # Open intervals
    # ------------------------------------------------------------------
    def current_wait(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        record = self.record(task_key, resource)
        return record.current_wait(now) if record is not None else 0.0

    def open_wait_time(self, resource: ResourceHandle, now: float) -> float:
        """Sum of all in-progress wait durations on ``resource``.

        Open waits let the estimator see a convoy *while it is forming*:
        blocked tasks never reach the grant point where closed wait time
        would be recorded.
        """
        aggregate = self._resources.get(resource.name)
        total = 0.0
        if aggregate is not None:
            for record in aggregate.waited.values():
                if record.wait_depth:
                    total += now - record.wait_since
        return total

    def open_hold_time(self, resource: ResourceHandle, now: float) -> float:
        """Sum of all in-progress hold durations on ``resource``."""
        aggregate = self._resources.get(resource.name)
        total = 0.0
        if aggregate is not None:
            for record in aggregate.touched.values():
                if record.hold_depth:
                    total += now - record.hold_since
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def task_total(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        record = self.record(task_key, resource)
        return record.total() if record is not None else UsageStats()

    def task_window(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        record = self.record(task_key, resource)
        if record is None or record.epoch != self.epoch:
            return UsageStats()
        return record.window()

    def resource_total(self, resource: ResourceHandle) -> UsageStats:
        aggregate = self._resources.get(resource.name)
        return aggregate.total() if aggregate is not None else UsageStats()

    def resource_window(self, resource: ResourceHandle) -> UsageStats:
        aggregate = self._resources.get(resource.name)
        return aggregate.window() if aggregate is not None else UsageStats()

    def current_hold(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        record = self.record(task_key, resource)
        return record.current_hold(now) if record is not None else 0.0

    def tasks_touching(self, resource: ResourceHandle) -> list:
        """Task keys with any recorded activity on ``resource``."""
        aggregate = self._resources.get(resource.name)
        return list(aggregate.touched) if aggregate is not None else []

    def tracked_tasks(self) -> set:
        """Task keys the ledger holds any state for.  Conservation: once
        finished tasks are forgotten this is a subset of the live ones."""
        keys = set(self.by_task)
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
        self.epoch += 1
        for aggregate in self._resources.values():
            aggregate.reset_window()

    def forget_task(self, task_key: int) -> None:
        """Drop all state for a finished task (bounds memory)."""
        records = self.by_task.pop(task_key, None)
        if records is None:
            return
        for record in records.values():
            if record.touched:
                del record.aggregate.touched[task_key]
            if record.waited:
                del record.aggregate.waited[task_key]
