"""Test-only reference for :class:`repro.core.ledger.UsageLedger`.

This is the ledger as it stood before the per-(task, resource) records:
six global tables keyed by ``(task key, resource)`` tuples, with
whole-table scans in ``forget_task``, ``tasks_touching`` and
``open_wait_time``.  It is slow and obviously right, which is what a
differential test wants (``test_ledger_records.py``).  Nothing under
``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.ledger import HoldTracker, UsageStats
from repro.core.types import ResourceHandle

Key = Tuple[int, ResourceHandle]  # (task id(), resource)


class TableLedger:
    """The six-table ledger: same recording and query API as UsageLedger."""

    def __init__(self) -> None:
        #: (task-key, resource) -> stats.
        self._task_total: Dict[Key, UsageStats] = {}
        self._task_window: Dict[Key, UsageStats] = {}
        self._holds: Dict[Key, HoldTracker] = {}
        #: Open wait intervals (task queued on a resource, not yet granted).
        self._waits: Dict[Key, HoldTracker] = {}
        #: resource -> aggregate stats.
        self._resource_total: Dict[ResourceHandle, UsageStats] = {}
        self._resource_window: Dict[ResourceHandle, UsageStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stats(self, table: Dict, key) -> UsageStats:
        stats = table.get(key)
        if stats is None:
            stats = UsageStats()
            table[key] = stats
        return stats

    def record_get(
        self, task_key: int, resource: ResourceHandle, amount: float, now: float
    ) -> None:
        key = (task_key, resource)
        self._stats(self._task_total, key).acquired += amount
        self._stats(self._task_window, key).acquired += amount
        self._stats(self._resource_total, resource).acquired += amount
        self._stats(self._resource_window, resource).acquired += amount
        self._stats_hold(key).on_get(now)

    def record_free(
        self, task_key: int, resource: ResourceHandle, amount: float, now: float
    ) -> None:
        key = (task_key, resource)
        self._stats(self._task_total, key).released += amount
        self._stats(self._task_window, key).released += amount
        self._stats(self._resource_total, resource).released += amount
        self._stats(self._resource_window, resource).released += amount
        duration = self._stats_hold(key).on_free(now)
        if duration > 0:
            self._stats(self._task_total, key).hold_time += duration
            self._stats(self._task_window, key).hold_time += duration
            self._stats(self._resource_total, resource).hold_time += duration
            self._stats(self._resource_window, resource).hold_time += duration

    def record_slow_by(
        self,
        task_key: int,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        key = (task_key, resource)
        for table, k in (
            (self._task_total, key),
            (self._task_window, key),
            (self._resource_total, resource),
            (self._resource_window, resource),
        ):
            stats = self._stats(table, k)
            stats.wait_time += delay
            stats.wait_events += events

    def _stats_hold(self, key: Key) -> HoldTracker:
        tracker = self._holds.get(key)
        if tracker is None:
            tracker = HoldTracker()
            self._holds[key] = tracker
        return tracker

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
        key = (task_key, resource)
        tracker = self._waits.get(key)
        if tracker is None:
            tracker = HoldTracker()
            self._waits[key] = tracker
        tracker.on_get(now)

    def record_wait_end(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        """Close an open wait; records the duration as slow-by time."""
        tracker = self._waits.get((task_key, resource))
        if tracker is None:
            return 0.0
        duration = tracker.on_free(now)
        if duration > 0:
            self.record_slow_by(task_key, resource, duration)
        return duration

    def current_wait(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        tracker = self._waits.get((task_key, resource))
        return tracker.current_hold(now) if tracker else 0.0

    def open_wait_time(self, resource: ResourceHandle, now: float) -> float:
        """Sum of all in-progress wait durations on ``resource``."""
        total = 0.0
        for (task_key, res), tracker in self._waits.items():
            if res == resource:
                total += tracker.current_hold(now)
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def task_total(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        return self._task_total.get((task_key, resource), UsageStats())

    def task_window(self, task_key: int, resource: ResourceHandle) -> UsageStats:
        return self._task_window.get((task_key, resource), UsageStats())

    def resource_total(self, resource: ResourceHandle) -> UsageStats:
        return self._resource_total.get(resource, UsageStats())

    def resource_window(self, resource: ResourceHandle) -> UsageStats:
        return self._resource_window.get(resource, UsageStats())

    def current_hold(
        self, task_key: int, resource: ResourceHandle, now: float
    ) -> float:
        tracker = self._holds.get((task_key, resource))
        return tracker.current_hold(now) if tracker else 0.0

    def tasks_touching(self, resource: ResourceHandle) -> list:
        """Task keys with any recorded activity on ``resource``."""
        return [
            task_key
            for (task_key, res) in self._task_total.keys()
            if res == resource
        ]

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------
    def roll_window(self) -> None:
        """Start a new detection window (clears windowed counters)."""
        self._task_window.clear()
        self._resource_window.clear()

    def forget_task(self, task_key: int) -> None:
        """Drop all state for a finished task (bounds memory)."""
        for table in (
            self._task_total,
            self._task_window,
            self._holds,
            self._waits,
        ):
            stale = [k for k in table if k[0] == task_key]
            for k in stale:
                del table[k]
