"""The ATROPOS estimator (paper §3.4): contention level and resource gain.

Two unit-less metrics characterize overload:

* **contention level** -- per resource, how contended it is.  The raw form
  is resource-class specific (eviction ratio for MEMORY; wait/use time
  ratio for LOCK and QUEUE-like resources).  The *normalized* form, used
  as scalarization weights, expresses contention as the fraction of
  execution time in the window lost to that resource (§3.5).

* **resource gain** -- per (task, resource), the *future* usage freed by
  cancelling the task: current usage scaled by the remaining-workload
  factor ``(1 - prog) / prog`` under the proportional-demand model, with
  progress from the GetNext model.

Fault injection: :attr:`Estimator.gain_tap` (default ``None``) is a
callable ``(now, gain) -> gain`` installed by :mod:`repro.faults` to
corrupt each per-(task, resource) gain before :meth:`Estimator.assess`
hands it to the policy engine -- modelling a tracing layer whose usage
ledger has drifted (lost events, stale progress).  Contention levels are
left clean: the paper derives them from coarse counters that are much
harder to corrupt than per-task attribution.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .config import AtroposConfig
from .progress import future_gain_multiplier
from .runtime import RuntimeManager
from .task import CancellableTask
from .types import ResourceHandle, ResourceType

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

_EPS = 1e-9


@dataclass
class ResourceReport:
    """Estimator output for one resource over the current window."""

    resource: ResourceHandle
    #: Class-specific raw contention (eviction ratio / wait-use ratio).
    contention_raw: float
    #: Normalized contention: fraction of window execution time lost.
    contention_norm: float
    #: Whether the normalized level crosses the overload threshold.
    overloaded: bool
    #: Top task gain over mean positive gain on this resource (inf when a
    #: single task accounts for everything; 0 when nobody gains).
    gain_skew: float = 0.0
    #: True when the contention is attributable to a concentrated culprit
    #: (high gain skew) rather than uniform aggregate demand.
    concentrated: bool = False


@dataclass
class TaskReport:
    """Estimator output for one task: gain per resource."""

    task: CancellableTask
    progress: float
    gains: Dict[ResourceHandle, float] = field(default_factory=dict)

    def gain(self, resource: ResourceHandle) -> float:
        return self.gains.get(resource, 0.0)

    @property
    def total_raw_gain(self) -> float:
        return sum(self.gains.values())


@dataclass
class OverloadAssessment:
    """Full estimator snapshot for one detection window."""

    resources: List[ResourceReport]
    tasks: List[TaskReport]

    @property
    def overloaded_resources(self) -> List[ResourceReport]:
        return [r for r in self.resources if r.overloaded]

    @property
    def is_resource_overload(self) -> bool:
        """True if a specific application resource is the bottleneck.

        Requires both a contended resource *and* a concentrated culprit
        on it.  False means the slowdown is "regular" overload (pure
        demand, gains spread uniformly across requests) and should be
        handled by conventional admission control (§3.3).
        """
        return any(r.overloaded and r.concentrated for r in self.resources)

    def most_contended(self) -> Optional[ResourceReport]:
        if not self.resources:
            return None
        return max(self.resources, key=lambda r: r.contention_norm)

    def blame_scores(self) -> Dict[str, float]:
        """Normalized contention per resource name (telemetry blame)."""
        return {
            r.resource.name: r.contention_norm for r in self.resources
        }


class Estimator:
    """Computes contention levels and per-task resource gains.

    Fault-injection hook: :attr:`gain_tap`, a callable
    ``(now, gain) -> gain`` applied to every per-(task, resource) gain
    inside :meth:`assess` (``None`` = clean gains).
    """

    def __init__(
        self,
        env: "Environment",
        runtime: RuntimeManager,
        config: AtroposConfig,
    ) -> None:
        self.env = env
        self.runtime = runtime
        self.config = config
        #: Gain-corruption tap installed by :mod:`repro.faults`.
        self.gain_tap = None

    # ------------------------------------------------------------------
    # Contention level
    # ------------------------------------------------------------------
    def contention_raw(self, resource: ResourceHandle) -> float:
        """Class-specific raw contention over the current window."""
        stats = self.runtime.ledger.resource_window(resource)
        if resource.rtype is ResourceType.MEMORY:
            # Average eviction ratio: evictions per acquired page.
            if stats.acquired <= _EPS:
                return 0.0
            return stats.wait_events / stats.acquired
        # LOCK / QUEUE / CPU / IO: waiting time over usage time.  Open
        # (in-progress) waits are included so a forming convoy -- where no
        # grant ever completes -- is visible immediately.
        waiting = stats.wait_time + self._open_wait_time(resource)
        usage = stats.hold_time + self._open_hold_time(resource)
        if usage <= _EPS:
            # Waiting with no one using it at all: treat any wait as severe.
            return waiting / _EPS if waiting > _EPS else 0.0
        return waiting / usage

    def _open_hold_time(self, resource: ResourceHandle) -> float:
        """Sum of in-progress hold durations on ``resource``."""
        return self.runtime.ledger.open_hold_time(resource, self.env.now)

    def _open_wait_time(self, resource: ResourceHandle) -> float:
        """Sum of in-progress wait durations on ``resource``."""
        return self.runtime.ledger.open_wait_time(resource, self.env.now)

    def contention_norm(self, resource: ResourceHandle) -> float:
        """Normalized contention: delay share of window execution time."""
        stats = self.runtime.ledger.resource_window(resource)
        exec_seconds = self.runtime.activity.window_task_seconds()
        if exec_seconds <= _EPS:
            return 0.0
        if resource.rtype is ResourceType.MEMORY:
            if stats.acquired > _EPS:
                # Eviction stall time, weighted by how contended the pool
                # is: the same stall matters more when the eviction ratio
                # is high.
                delay = stats.wait_time * min(
                    1.0, self.contention_raw(resource)
                )
            else:
                # Pure stall regime (e.g. GC pauses from heap occupancy):
                # nobody acquires pages in the window, but tasks are still
                # losing time to the memory resource.
                delay = stats.wait_time
        else:
            delay = stats.wait_time + self._open_wait_time(resource)
        return min(1.0, delay / exec_seconds)

    # ------------------------------------------------------------------
    # Resource gain
    # ------------------------------------------------------------------
    def resource_gain(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        """Future usage of ``resource`` freed by cancelling ``task``."""
        return self.current_usage(task, resource) * future_gain_multiplier(
            task.progress()
        )

    def current_usage(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        """Gain without the future scaling (the Fig 13 ablation baseline)."""
        record = self.runtime.ledger.record(id(task), resource)
        if record is None:
            return 0.0
        if resource.rtype is ResourceType.MEMORY:
            return record.total().held  # pages currently held
        if resource.rtype in (ResourceType.LOCK, ResourceType.QUEUE):
            # Current holding time (open interval), per the paper's lock
            # example: "held a table lock for 1s at 40% progress -> 1.5s".
            current = record.current_hold(self.env.now)
            return current if current > 0 else record.hold_time
        return record.acquired  # CPU-seconds consumed / IO bytes moved

    # ------------------------------------------------------------------
    # Full assessment
    # ------------------------------------------------------------------
    def assess(
        self,
        resources: List[ResourceHandle],
        tasks: List[CancellableTask],
        use_future_gain: bool = True,
    ) -> OverloadAssessment:
        """Snapshot contention and gains for the policy engine."""
        resource_reports = []
        for resource in resources:
            raw = self.contention_raw(resource)
            norm = self.contention_norm(resource)
            resource_reports.append(
                ResourceReport(
                    resource=resource,
                    contention_raw=raw,
                    contention_norm=norm,
                    overloaded=norm >= self.config.threshold_for(resource.name),
                )
            )
        task_reports = []
        for task in tasks:
            report = TaskReport(task=task, progress=task.progress())
            # One progress reading per task; x1.0 is the current-usage
            # (Fig 13 ablation) gain, exactly.
            multiplier = (
                future_gain_multiplier(report.progress)
                if use_future_gain
                else 1.0
            )
            for resource in resources:
                gain = self.current_usage(task, resource) * multiplier
                if self.gain_tap is not None:
                    gain = self.gain_tap(self.env.now, gain)
                if gain > 0.0:
                    report.gains[resource] = gain
            task_reports.append(report)
        for resource_report in resource_reports:
            self._assess_concentration(resource_report, task_reports)
        return OverloadAssessment(resources=resource_reports, tasks=task_reports)

    def _assess_concentration(
        self, resource_report: ResourceReport, task_reports: List[TaskReport]
    ) -> None:
        """Decide whether the contention has a concentrated culprit.

        Uniform tiny gains mean aggregate demand (regular overload, §3.3),
        where cancelling any single request would be indiscriminate.  Two
        tests, by gain unit:

        * **time-typed** resources (LOCK/QUEUE/CPU -- gains in seconds):
          a task whose expected future hold alone exceeds a multiple of
          the SLO is a monopolist by definition.  This stays correct even
          when the resource is fully occupied by several similar culprits
          and the victims (who hold nothing) are invisible in the ledger.
        * **quantity-typed** resources (MEMORY pages / IO bytes): gains
          are not SLO-comparable; use the max/median skew of positive
          gains (one or two gainers are concentrated by construction).
        """
        resource = resource_report.resource
        gains = [
            gain
            for gain in [tr.gain(resource) for tr in task_reports]
            if gain > 0.0
        ]
        if not gains:
            resource_report.gain_skew = 0.0
            resource_report.concentrated = False
            return
        if resource.rtype in (
            ResourceType.LOCK,
            ResourceType.QUEUE,
            ResourceType.CPU,
        ):
            budget = (
                self.config.culprit_gain_slo_multiple
                * self.config.slo_latency
            )
            top = max(gains)
            resource_report.gain_skew = top / budget if budget > 0 else 0.0
            resource_report.concentrated = top >= budget
            return
        if len(gains) <= 2:
            resource_report.gain_skew = float("inf")
            resource_report.concentrated = True
            return
        skew = max(gains) / statistics.median(gains)
        resource_report.gain_skew = skew
        resource_report.concentrated = skew >= self.config.gain_skew_threshold
