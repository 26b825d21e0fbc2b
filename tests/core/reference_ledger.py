"""Test-only reference for the usage ledger and the runtime that writes it.

:class:`TableLedger` is the ledger as it stood before the per-(task,
resource) records: six global tables keyed by ``(task key, resource)``
tuples, with whole-table scans in ``forget_task``, ``tasks_touching`` and
``open_wait_time``, and one :class:`HoldTracker` object per open
interval.  :class:`TableRuntime` is the runtime manager in front of it
as it stood before the tracing entry points were fused into one frame
each: a separate timestamp call, a ledger call per event, and the
application's per-event tracing debt added to a task metadata dict.
Both are slow and obviously right, which is what a differential test
wants (``test_ledger_records.py``).  They keep every counter four times
(task and resource, total and window), as the ledger once did; the test
compares the copies the ledger still keeps.  Nothing under ``src/``
imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.types import ResourceHandle

Key = Tuple[int, ResourceHandle]  # (task seq, resource)


@dataclass
class UsageStats:
    """Raw counters for one (task, resource) or one resource aggregate."""

    acquired: float = 0.0
    released: float = 0.0
    wait_time: float = 0.0
    wait_events: float = 0.0
    hold_time: float = 0.0


@dataclass(slots=True)
class HoldTracker:
    """Tracks the open holding interval for a (task, resource) pair.

    Application tasks hold a given resource through nested or repeated
    grants; we track the outermost interval (depth counting).
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


class TableRuntime:
    """The runtime manager over :class:`TableLedger`, keyed by ints.

    Timestamps follow the two-mode scheme (coarse: quantized to the
    sampling interval; fine: the clock); ``record_get`` / ``record_free``
    / ``record_slow_by`` then add the mode's per-event cost to the
    task's ``metadata["trace_debt"]``, as the application did after
    each of those three calls.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.ledger = TableLedger()
        self.now = 0.0
        self.fine_mode = False
        self.events_traced = 0
        self._last_sampled_stamp = 0.0
        #: task key -> that task's metadata dict.
        self.metadata: Dict[int, dict] = {}

    def timestamp(self) -> float:
        now = self.now
        if self.fine_mode:
            return now
        interval = self.config.timestamp_sample_interval
        if now - self._last_sampled_stamp >= interval:
            self._last_sampled_stamp = now - (now % interval)
        return self._last_sampled_stamp

    def event_cost(self) -> float:
        if self.fine_mode:
            return self.config.fine_trace_cost
        return self.config.coarse_trace_cost

    def _charge_tracing(self, task_key: int) -> None:
        cost = 1 * self.event_cost()
        if cost > 0.0:
            metadata = self.metadata.setdefault(task_key, {})
            metadata["trace_debt"] = metadata.get("trace_debt", 0.0) + cost

    def trace_debt(self, task_key: int) -> float:
        return self.metadata.get(task_key, {}).get("trace_debt", 0.0)

    def record_get(self, task_key, resource, amount=1.0) -> None:
        self.events_traced += 1
        self.ledger.record_get(task_key, resource, amount, self.timestamp())
        self._charge_tracing(task_key)

    def record_free(self, task_key, resource, amount=1.0) -> None:
        self.events_traced += 1
        self.ledger.record_free(task_key, resource, amount, self.timestamp())
        self._charge_tracing(task_key)

    def record_slow_by(self, task_key, resource, delay, events=1.0) -> None:
        self.events_traced += 1
        self.ledger.record_slow_by(task_key, resource, delay, events)
        self._charge_tracing(task_key)

    def record_wait_start(self, task_key, resource) -> None:
        self.events_traced += 1
        self.ledger.record_wait_start(task_key, resource, self.now)

    def record_wait_end(self, task_key, resource) -> float:
        self.events_traced += 1
        return self.ledger.record_wait_end(task_key, resource, self.now)
