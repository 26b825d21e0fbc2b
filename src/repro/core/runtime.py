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

    def task_started(self) -> None:
        self._settle()
        self._active += 1

    def task_finished(self) -> None:
        self._settle()
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
    """Tracks per-task resource usage for the ATROPOS controller."""

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

    # ------------------------------------------------------------------
    # Timestamping
    # ------------------------------------------------------------------
    def timestamp(self) -> float:
        """Current trace timestamp.

        In coarse mode, timestamps are quantized to the sampling interval
        (all events within an interval share one timestamp); in fine mode
        every event reads the clock.
        """
        now = self.env.now
        if self.fine_mode:
            return now
        interval = self.config.timestamp_sample_interval
        if now - self._last_sampled_stamp >= interval:
            self._last_sampled_stamp = now - (now % interval)
        return self._last_sampled_stamp

    def set_fine_mode(self, enabled: bool) -> None:
        self.fine_mode = enabled

    def event_cost(self) -> float:
        """Simulated per-event tracing overhead for the current mode."""
        if self.fine_mode:
            return self.config.fine_trace_cost
        return self.config.coarse_trace_cost

    # ------------------------------------------------------------------
    # Tracing entry points
    # ------------------------------------------------------------------
    def record_get(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        self.events_traced += 1
        self.ledger.record_get(id(task), resource, amount, self.timestamp())

    def record_free(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        self.events_traced += 1
        self.ledger.record_free(id(task), resource, amount, self.timestamp())

    def record_slow_by(
        self,
        task: CancellableTask,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        self.events_traced += 1
        self.ledger.record_slow_by(id(task), resource, delay, events)

    def record_wait_start(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> None:
        self.events_traced += 1
        self.ledger.record_wait_start(id(task), resource, self.env.now)

    def record_wait_end(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        self.events_traced += 1
        return self.ledger.record_wait_end(id(task), resource, self.env.now)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def task_started(self, task: CancellableTask) -> None:
        self.activity.task_started()

    def task_finished(self, task: CancellableTask) -> None:
        self.activity.task_finished()
        self.ledger.forget_task(id(task))

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

    def create_cancel(self, *args, **kwargs) -> CancellableTask:
        task = super().create_cancel(*args, **kwargs)
        self.runtime.task_started(task)
        return task

    def free_cancel(self, task: CancellableTask) -> None:
        if id(task) in self.tasks:
            self.runtime.task_finished(task)
        super().free_cancel(task)
