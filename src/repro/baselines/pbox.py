"""pBox baseline [Hu et al., SOSP '23].

pBox pushes performance-isolation boundaries into the application: it
traces per-request resource usage, detects interference, and *penalizes*
(throttles) the offending request -- but it never drops a running
request.  §2.2's critique: a throttled culprit still holds what it
already acquired, so severe overload caused by held resources is not
fully recovered.

Control loop: a :class:`~repro.core.runtime.TracingController` that sits
in its own pipeline's action seat; the per-window step (:meth:`PBox.act`)
is the interference check followed by the usage-ledger window roll.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.config import AtroposConfig
from ..core.estimator import Estimator
from ..core.pipeline import ControlPipeline
from ..core.runtime import TracingController
from ..core.task import CancellableTask

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class PBox(TracingController):
    """Interference detection + penalty throttling (no drops)."""

    name = "pbox"
    #: Seconds between interference checks (one usage window).
    detection_period = 0.1
    #: Delay injected at each checkpoint of a penalized task.
    penalty_delay = 0.05
    #: How long a penalty sticks before expiring.
    penalty_duration = 1.0
    #: Contention level above which a resource counts as overloaded.
    contention_threshold = 0.25

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        # pBox traces the same per-task usage signals (its "observation
        # points"); we reuse the runtime/estimator machinery.  Its
        # tracing is modelled as free: no checkpoint debt.
        super().__init__(
            env,
            AtroposConfig(
                slo_latency=slo_latency,
                detection_period=self.detection_period,
                contention_threshold=self.contention_threshold,
                coarse_trace_cost=0.0,
                fine_trace_cost=0.0,
            ),
        )
        self.estimator = Estimator(env, self.runtime, self.config)
        #: task seq -> penalty expiry time.
        self._penalized: Dict[int, float] = {}
        self.pipeline = ControlPipeline(
            env, self.detection_period, action=self
        )

    def free_cancel(self, task: CancellableTask) -> None:
        self._penalized.pop(task.seq, None)
        super().free_cancel(task)

    # ------------------------------------------------------------------
    # Penalty mechanism
    # ------------------------------------------------------------------
    def throttle_delay(self, task: CancellableTask) -> float:
        expiry = self._penalized.get(task.seq)
        if expiry is None:
            return 0.0
        if self.env.now >= expiry:
            del self._penalized[task.seq]
            return 0.0
        return self.penalty_delay

    def start(self) -> None:
        self.pipeline.start()

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """Penalize this window's offenders, then roll the usage window."""
        self._maybe_penalize()
        self.runtime.roll_window()

    def _maybe_penalize(self) -> None:
        """Penalize the top consumer of each overloaded resource.

        pBox reasons about observed usage, so it needs no per-task
        assessment: the contention verdicts, then each overloaded
        resource's top consumer from the tasks that touched it.
        """
        estimator = self.estimator
        resources = list(self.resources.values())
        if estimator.gain_tap is not None:
            offenders = self._tapped_offenders(resources)
        else:
            offenders = [
                estimator.top_consumer(report.resource, self.tasks)
                for report in estimator.contention(resources)
                if report.overloaded
            ]
        for best in offenders:
            if best is not None:
                self._penalized[best.seq] = (
                    self.env.now + self.penalty_duration
                )

    def _tapped_offenders(self, resources) -> List[Optional[CancellableTask]]:
        """The same pick from a full assessment: a gain tap corrupts every
        (task, resource) usage, in live-task order."""
        assessment = self.estimator.assess(
            resources, self.live_tasks(), use_future_gain=False
        )
        offenders = []
        for report in assessment.overloaded_resources:
            best: Optional[CancellableTask] = None
            best_usage = 0.0
            for task_report in assessment.tasks:
                usage = task_report.gain(report.resource)
                if usage > best_usage and task_report.task.alive:
                    best = task_report.task
                    best_usage = usage
            offenders.append(best)
        return offenders
