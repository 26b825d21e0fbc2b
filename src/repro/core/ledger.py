"""Per-task, per-resource usage accounting (paper §3.2).

The runtime manager records every ``get`` / ``free`` / ``slow-by`` event
and every wait into this ledger, which keeps one copy of each counter
the estimator reads (§3.4-3.5):

* per (task, resource), a :class:`TaskUsage` holding the usage since
  the task started -- what the resource gain scales by the remaining
  work;
* per resource, a :class:`ResourceUsage` holding the usage over the
  current detection window -- what contention is computed from
  (C_r = D_r / T_exec).  :meth:`UsageLedger.roll_window` zeroes it.

A task record is reached through the task's own record map (keyed by
resource name); a resource record also lists the records of the tasks
that touched it and of the tasks that waited on it.  The ledger owns
the layout; the writers are the five tracing entry points of
:class:`~repro.core.runtime.RuntimeManager`, which update a record in
place (two dictionary lookups and a handful of attribute updates) and
call back here only to create a record or to list its task under the
resource.  Forgetting a task costs as much as the resources it touched.

A resource is identified by its name: a controller registers one
:class:`~repro.core.types.ResourceHandle` per name.
"""

from __future__ import annotations

from typing import Dict, Optional

from .types import ResourceHandle


class ResourceUsage:
    """One resource: this window's counters plus the live tasks using it.

    Both maps are insertion-ordered (first counted event / first wait)
    and entries leave only when the task is forgotten: the estimator
    sums open intervals over them, and a float sum depends on its order.
    """

    __slots__ = (
        "acquired", "wait_time", "wait_events", "hold_time",
        "touched", "waited",
    )

    def __init__(self) -> None:
        #: Units acquired (pages for MEMORY, grants for LOCK/QUEUE,
        #: seconds for CPU, bytes for IO).
        self.acquired = 0.0
        #: Seconds of delay attributed to this resource (lock wait, queue
        #: wait, eviction stall, run-queue wait, device queueing).
        self.wait_time = 0.0
        #: Number of slow-by events (evictions for MEMORY).
        self.wait_events = 0.0
        #: Seconds the resource was held, over hold intervals closed in
        #: this window.
        self.hold_time = 0.0
        #: task seq -> record, for tasks with a get / free / slow-by.
        self.touched: Dict[int, TaskUsage] = {}
        #: task seq -> record, for tasks that ever queued on it.
        self.waited: Dict[int, TaskUsage] = {}

    def open_wait_time(self, now: float) -> float:
        """Sum of all in-progress wait durations on the resource.

        Open waits let the estimator see a convoy *while it is forming*:
        blocked tasks never reach the grant point where closed wait time
        would be recorded.
        """
        total = 0.0
        for record in self.waited.values():
            if record.wait_depth:
                total += now - record.wait_since
        return total

    def open_hold_time(self, now: float) -> float:
        """Sum of all in-progress hold durations on the resource."""
        total = 0.0
        for record in self.touched.values():
            if record.hold_depth:
                total += now - record.hold_since
        return total


class TaskUsage:
    """One (task, resource) pair: usage since the task started, and the
    two open intervals.

    An interval is a depth and a start: application tasks hold a
    resource through nested or repeated grants, and the outermost
    interval (from the get that opened it to the free that closed it)
    is the right granularity for "how long has this task been
    monopolizing the resource".  The start is meaningful only while the
    depth is positive.
    """

    __slots__ = (
        "aggregate", "acquired", "released", "hold_time", "touched",
        "waited", "hold_depth", "hold_since", "wait_depth", "wait_since",
    )

    def __init__(self, aggregate: ResourceUsage) -> None:
        self.aggregate = aggregate
        self.acquired = self.released = self.hold_time = 0.0
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


class UsageLedger:
    """Usage since start per (task, resource), per window per resource."""

    def __init__(self) -> None:
        #: task seq -> that task's records, by resource name.  Read
        #: directly by the runtime's tracing entry points.
        self.by_task: Dict[int, Dict[str, TaskUsage]] = {}
        #: resource name -> its record (kept for the ledger's lifetime).
        self._resources: Dict[str, ResourceUsage] = {}

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
        record = records[resource.name] = TaskUsage(self.aggregate(resource))
        return record

    def touch(
        self,
        task_key: int,
        resource: ResourceHandle,
        record: Optional[TaskUsage],
    ) -> TaskUsage:
        """The record for a task's first get / free / slow-by on the
        resource, given the caller's own lookup (``None`` creates it),
        its task listed under the resource."""
        if record is None:
            record = self.open(task_key, resource)
        record.touched = True
        record.aggregate.touched[task_key] = record
        return record

    def aggregate(self, resource: ResourceHandle) -> ResourceUsage:
        """The resource's record (created empty on first use)."""
        aggregate = self._resources.get(resource.name)
        if aggregate is None:
            aggregate = self._resources[resource.name] = ResourceUsage()
        return aggregate

    def roll_window(self) -> None:
        """Start a new detection window (zeroes the resource counters)."""
        for aggregate in self._resources.values():
            aggregate.acquired = aggregate.wait_time = 0.0
            aggregate.wait_events = aggregate.hold_time = 0.0

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
