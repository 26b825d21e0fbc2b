"""Protego baseline [Cho et al., NSDI '23].

Protego lets requests execute, monitors each request's *blocking delay*
(primarily lock wait), and drops requests whose accumulated wait
approaches an SLO violation.  It drops the *victims* of contention, never
the culprit holding the resource -- the limitation §2.2 demonstrates:
tail latency is bounded, but throughput craters and the drop rate is
high, and cases whose bottleneck is a non-waitable resource (memory
thrash, GC) are not helped at all.

Control loop: Protego sits in its own pipeline's action seat; the
per-period step (:meth:`Protego.act`) scans the open waits for
over-budget victims and delivers the drops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..core.controller import BaseController
from ..core.pipeline import ControlPipeline
from ..core.task import CancellableTask
from ..core.types import DropSignal, ResourceHandle, ResourceType, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class Protego(BaseController):
    """Victim-dropping overload control keyed on blocking delay."""

    name = "protego"
    #: ``slow_by_resource`` feeds the blocking-delay budget.
    traces_resources = True
    #: Drop a request once its accumulated blocking delay exceeds
    #: ``drop_fraction * slo_latency``.
    drop_fraction = 0.8
    #: How often waiting requests are scanned, seconds.
    monitor_period = 0.02

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        super().__init__(env)
        #: The request latency SLO.
        self.slo_latency = slo_latency
        #: task seq -> accumulated closed blocking delay.
        self._closed_wait: Dict[int, float] = {}
        #: task seq -> {resource: open wait start time}.  Only tasks that
        #: are waiting right now have an entry, so the outer order is
        #: wait-start order; the inner order is the task's own.
        self._open_waits: Dict[int, Dict[ResourceHandle, float]] = {}
        self.pipeline = ControlPipeline(env, self.monitor_period, action=self)

    # ------------------------------------------------------------------
    # Wait tracking
    # ------------------------------------------------------------------
    def _waitable(self, resource: ResourceHandle) -> bool:
        """Protego monitors blocking delays (locks, queues, devices) --
        not memory-style resources, whose cost shows up as slow
        execution rather than waiting."""
        return resource.rtype is not ResourceType.MEMORY

    def begin_wait(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> None:
        if self._waitable(resource):
            self._open_waits.setdefault(task.seq, {})[resource] = self.env.now

    def slow_by_resource(
        self,
        task: CancellableTask,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        # Post-hoc blocking delays (e.g. CPU run-queue waits reported
        # after a burst) also count toward the request's budget.
        if self._waitable(resource):
            self._closed_wait[task.seq] = (
                self._closed_wait.get(task.seq, 0.0) + delay
            )

    def end_wait(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        waits = self._open_waits.get(task.seq)
        start = waits.pop(resource, None) if waits is not None else None
        if start is None:
            return 0.0
        if not waits:
            del self._open_waits[task.seq]
        duration = self.env.now - start
        self._closed_wait[task.seq] = (
            self._closed_wait.get(task.seq, 0.0) + duration
        )
        return duration

    def blocking_delay(self, task: CancellableTask) -> float:
        """Total blocking delay so far (closed + in-progress waits)."""
        total = self._closed_wait.get(task.seq, 0.0)
        waits = self._open_waits.get(task.seq)
        if waits is not None:
            now = self.env.now
            for start in waits.values():
                total += now - start
        return total

    def free_cancel(self, task: CancellableTask) -> None:
        self._closed_wait.pop(task.seq, None)
        self._open_waits.pop(task.seq, None)
        super().free_cancel(task)

    # ------------------------------------------------------------------
    # Dropping
    # ------------------------------------------------------------------
    @property
    def drop_threshold(self) -> float:
        return self.drop_fraction * self.slo_latency

    def should_drop(self, task: CancellableTask) -> bool:
        """Checkpoint hook: drop executing victims over budget."""
        if task.kind is TaskKind.BACKGROUND:
            return False
        return self.blocking_delay(task) > self.drop_threshold

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """Abort the waiting victims whose blocking delay is over budget.

        One drop per open wait, in wait-start order.  An interrupt is
        only scheduled here, so no drop changes what the scan sees next.
        """
        for seq, waits in self._open_waits.items():
            task = self.tasks.get(seq)
            if task is None or not task.alive:
                continue
            if task.kind is TaskKind.BACKGROUND:
                continue
            if self.blocking_delay(task) <= self.drop_threshold:
                continue
            process = task.process
            if process is None or not process.is_alive:
                continue
            for resource in waits:
                process.interrupt(
                    DropSignal(
                        reason="lock-wait-over-budget",
                        resource=resource,
                        decided_at=now,
                    )
                )

    def start(self) -> None:
        self.pipeline.start()
