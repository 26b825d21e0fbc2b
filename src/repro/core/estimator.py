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
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional

from .config import AtroposConfig
from .ledger import ResourceUsage, TaskUsage
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

    @cached_property
    def _weights(self) -> Dict[ResourceHandle, float]:
        """Scalarization weights (§3.5): normalized contention per
        resource, built once per assessment."""
        return {r.resource: r.contention_norm for r in self.resources}

    def score(self, report: TaskReport) -> float:
        """``report``'s gains scalarized by contention (§3.5, lines 12-20
        of Algorithm 1): the one copy of the sum behind the policy's
        ranking, the audit's candidate scores and a fleet node's."""
        weights = self._weights
        return sum(
            weights.get(resource, 0.0) * gain
            for resource, gain in report.gains.items()
        )

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
        return self._raw(resource, *self._window(resource))

    def contention_norm(self, resource: ResourceHandle) -> float:
        """Normalized contention: delay share of window execution time."""
        return self._norm(resource, *self._window(resource))

    def calm(self, resources: Dict[str, ResourceHandle]) -> bool:
        """No resource of ``resources`` (a controller's registry) is at
        or over its contention threshold."""
        for resource in resources.values():
            norm = self.contention_norm(resource)
            if norm >= self.config.contention_threshold:
                return False
        return True

    def _window(self, resource: ResourceHandle):
        """The resource's window record and the sum of its in-progress
        waits (taken once per resource: it walks every waiter)."""
        window = self.runtime.ledger.aggregate(resource)
        if resource.rtype is ResourceType.MEMORY:
            return window, 0.0
        return window, window.open_wait_time(self.env.now)

    def _raw(
        self, resource: ResourceHandle, window: ResourceUsage, open_wait: float
    ) -> float:
        if resource.rtype is ResourceType.MEMORY:
            # Average eviction ratio: evictions per acquired page.
            if window.acquired <= _EPS:
                return 0.0
            return window.wait_events / window.acquired
        # LOCK / QUEUE / CPU / IO: waiting time over usage time.  Open
        # (in-progress) waits are included so a forming convoy -- where no
        # grant ever completes -- is visible immediately.
        waiting = window.wait_time + open_wait
        usage = window.hold_time + window.open_hold_time(self.env.now)
        if usage <= _EPS:
            # Waiting with no one using it at all: treat any wait as severe.
            return waiting / _EPS if waiting > _EPS else 0.0
        return waiting / usage

    def _norm(
        self, resource: ResourceHandle, window: ResourceUsage, open_wait: float
    ) -> float:
        exec_seconds = self.runtime.activity.window_task_seconds()
        if exec_seconds <= _EPS:
            return 0.0
        if resource.rtype is ResourceType.MEMORY:
            if window.acquired > _EPS:
                # Eviction stall time, weighted by how contended the pool
                # is: the same stall matters more when the eviction ratio
                # is high.
                delay = window.wait_time * min(
                    1.0, self._raw(resource, window, open_wait)
                )
            else:
                # Pure stall regime (e.g. GC pauses from heap occupancy):
                # nobody acquires pages in the window, but tasks are still
                # losing time to the memory resource.
                delay = window.wait_time
        else:
            delay = window.wait_time + open_wait
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
        record = self.runtime.ledger.record(task.seq, resource)
        if record is None:
            return 0.0
        return _usage(record, resource.rtype, self.env.now)

    def _touched_usage(self, resource: ResourceHandle):
        """``(task seq, current usage)`` of every task with a get, free or
        slow-by on ``resource``, in first-touch order.  A task without
        one uses nothing of it."""
        touched = self.runtime.ledger.aggregate(resource).touched
        rtype, now = resource.rtype, self.env.now
        return [
            (key, _usage(record, rtype, now))
            for key, record in touched.items()
        ]

    # ------------------------------------------------------------------
    # Full assessment
    # ------------------------------------------------------------------
    def contention(self, resources: List[ResourceHandle]) -> List[ResourceReport]:
        """Contention levels and overload verdicts (no gains yet)."""
        reports = []
        for resource in resources:
            window, open_wait = self._window(resource)
            raw = self._raw(resource, window, open_wait)
            norm = self._norm(resource, window, open_wait)
            reports.append(
                ResourceReport(
                    resource=resource,
                    contention_raw=raw,
                    contention_norm=norm,
                    overloaded=norm >= self.config.contention_threshold,
                )
            )
        return reports

    def assess(
        self,
        resources: List[ResourceHandle],
        tasks: List[CancellableTask],
        use_future_gain: bool = True,
    ) -> OverloadAssessment:
        """Snapshot contention and gains for the policy engine.

        Gains come from each resource's touched records, resource by
        resource, so every ``TaskReport.gains`` lists its resources in
        ``resources`` order.  A :attr:`gain_tap` draws for every (task,
        resource) pair in task order, so a tapped assessment walks them
        all.
        """
        resource_reports = self.contention(resources)
        # One progress reading per task; x1.0 is the current-usage
        # (Fig 13 ablation) gain, exactly.
        task_reports = [
            TaskReport(task=task, progress=task.progress()) for task in tasks
        ]
        multipliers = [
            future_gain_multiplier(report.progress) if use_future_gain else 1.0
            for report in task_reports
        ]
        #: resource -> its positive gains (any order: only their max,
        #: median and count are read).
        gains: Dict[ResourceHandle, List[float]] = {r: [] for r in resources}
        if self.gain_tap is None:
            by_seq = {
                report.task.seq: (report, multiplier)
                for report, multiplier in zip(task_reports, multipliers)
            }
            for resource in resources:
                positive = gains[resource]
                for seq, usage in self._touched_usage(resource):
                    entry = by_seq.get(seq)
                    if entry is None:
                        continue
                    gain = usage * entry[1]
                    if gain > 0.0:
                        entry[0].gains[resource] = gain
                        positive.append(gain)
        else:
            now = self.env.now
            for report, multiplier in zip(task_reports, multipliers):
                for resource in resources:
                    gain = self.gain_tap(
                        now, self.current_usage(report.task, resource) * multiplier
                    )
                    if gain > 0.0:
                        report.gains[resource] = gain
                        gains[resource].append(gain)
        for resource_report in resource_reports:
            self._assess_concentration(
                resource_report, gains[resource_report.resource]
            )
        return OverloadAssessment(resources=resource_reports, tasks=task_reports)

    def top_consumer(
        self, resource: ResourceHandle, tasks: Dict[int, CancellableTask]
    ) -> Optional[CancellableTask]:
        """The live task using the most of ``resource`` right now.

        ``tasks`` is the controller's task table (``seq`` -> task); ties
        go to the task created first, the lower ``seq``.  The same pick as
        scanning an assessment's ``TaskReport`` list for the first
        strictly greater current usage, without building one.
        """
        best: Optional[CancellableTask] = None
        best_usage = 0.0
        for seq, usage in self._touched_usage(resource):
            if usage < best_usage or not usage > 0.0:  # NaN never wins
                continue
            task = tasks.get(seq)
            if task is None or not task.alive:
                continue
            if usage == best_usage and seq > best.seq:
                continue
            best, best_usage = task, usage
        return best

    def _assess_concentration(
        self, resource_report: ResourceReport, gains: List[float]
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


def _usage(record: TaskUsage, rtype: ResourceType, now: float) -> float:
    """Current usage behind one (task, resource) record."""
    if rtype is ResourceType.MEMORY:
        return max(0.0, record.acquired - record.released)  # pages held
    if rtype is ResourceType.LOCK or rtype is ResourceType.QUEUE:
        # Current holding time (open interval), per the paper's lock
        # example: "held a table lock for 1s at 40% progress -> 1.5s".
        current = record.current_hold(now)
        return current if current > 0 else record.hold_time
    return record.acquired  # CPU-seconds consumed / IO bytes moved
