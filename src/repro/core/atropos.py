"""The ATROPOS overload controller (paper §3, Figure 5).

Wires together the runtime manager (per-task usage tracking), overload
detector, estimator, policy engine, and cancellation manager behind the
shared :class:`~repro.core.controller.BaseController` interface that
applications are instrumented against.

The periodic control loop itself is a
:class:`~repro.core.pipeline.ControlPipeline`: a
:class:`DetectorSignalSource` produces the window's detector signals
(plus, in adaptive mode, a health source consuming them), an
:class:`~repro.core.pipeline.AdaptationPolicy` may move the live
detector thresholds between windows, and a **mitigation lever**
(:mod:`repro.core.levers`) carries the blame -> select -> mitigate
decision (§3.3-§3.5) with its audit trail.  The default
:class:`~repro.core.levers.CancelLever` reproduces the paper's
targeted cancellation byte-for-byte; ``AtroposConfig.lever`` swaps in
lock-queue reshaping or the audited composite.  The controller class
holds the state and the integration surface; the pipeline stages hold
the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from .cancellation import CancellationManager
from .config import AtroposConfig
from .controller import BaseController
from .decision_log import DecisionKind, DecisionLog
from .detector import OverloadDetector
from .estimator import Estimator, OverloadAssessment
from .levers import resolve_lever
from .pipeline import (
    ControlPipeline,
    NoAdaptation,
    SignalSource,
)
from .policy import CancellationPolicy, MultiObjectivePolicy
from .runtime import TracingController
from .task import CancellableTask, CancelInitiator
from .types import TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.metrics import RequestRecord


class DetectorSignalSource(SignalSource):
    """Samples the overload detector (and rolls the usage window).

    Produces ``potential_overload``, ``oldest_inflight_age``, and the
    recorded sample's values (``detector_tail_latency``,
    ``detector_throughput``, ``detector_samples``) for downstream
    stages; also flips the runtime's two-mode tracing, which is part of
    the same observation step (§3.2).
    """

    name = "detector"

    def __init__(self, controller: "Atropos") -> None:
        self.controller = controller

    def sample(self, now: float, signals: Dict[str, Any]) -> None:
        controller = self.controller
        oldest_age = controller._oldest_request_age()
        potential = controller.detector.check(oldest_inflight_age=oldest_age)
        # Two-mode tracing: fine-grained while overload is suspected.
        controller.runtime.set_fine_mode(potential)
        signals["oldest_inflight_age"] = oldest_age
        signals["potential_overload"] = potential
        sample = (
            controller.detector.history[-1]
            if controller.detector.history
            else None
        )
        if sample is not None:
            signals["detector_tail_latency"] = sample.tail_latency
            signals["detector_throughput"] = sample.throughput
            signals["detector_samples"] = sample.samples

    def roll(self, now: float) -> None:
        self.controller.runtime.roll_window()


class Atropos(TracingController):
    """Targeted-task-cancellation overload controller."""

    name = "atropos"

    def __init__(
        self,
        env: "Environment",
        config: Optional[AtroposConfig] = None,
        policy: Optional[CancellationPolicy] = None,
        fallback: Optional[BaseController] = None,
    ) -> None:
        """
        Args:
            fallback: conventional overload controller consulted when a
                slowdown is classified as *regular* (pure demand) overload
                rather than resource overload (§3.3: "ATROPOS invokes
                other overload control mechanisms in place to handle it").
                Typically a :class:`~repro.baselines.Seda`-style admission
                controller.  When None, regular overload is only counted.
        """
        super().__init__(env, config or AtroposConfig())
        self.detector = OverloadDetector(env, self.config)
        self.estimator = Estimator(env, self.runtime, self.config)
        self.policy = policy or MultiObjectivePolicy(
            min_age=self.config.min_cancel_age
        )
        self.cancellation = CancellationManager(
            env, self.config, calm_check=self._is_calm
        )
        self.fallback = fallback
        #: Explainable timeline of detections/classifications/cancels.
        self.decision_log = DecisionLog()
        #: Count of detector activations classified as regular overload.
        self.regular_overloads = 0
        #: Most recent assessment (exposed for experiments/diagnostics).
        self.last_assessment: Optional[OverloadAssessment] = None
        self._started = False
        #: True while the current detection window is classified as
        #: regular (demand) overload; routes admission to the fallback.
        self._regular_overload_active = False
        #: The active mitigation lever (the pipeline's action stage).
        self.lever = resolve_lever(self.config.lever)(self)
        #: The control pipeline (sample -> adapt -> act -> roll).
        self.adaptation = self._build_adaptation()
        self.pipeline = ControlPipeline(
            env,
            period=self.config.detection_period,
            sources=self._build_sources(),
            adaptation=self.adaptation,
            action=self.lever,
        )

    def bind(self, app) -> None:
        """Hand the lever the application (its resource registry)."""
        self.lever.bind(app)

    def _build_adaptation(self):
        if not self.config.adaptive_thresholds:
            return NoAdaptation()
        from .adaptive import AdaptiveThresholdPolicy

        return AdaptiveThresholdPolicy(
            self.detector, self.config, self.decision_log
        )

    def _build_sources(self):
        sources = [DetectorSignalSource(self)]
        if self.config.adaptive_thresholds:
            from ..telemetry.health import HealthMonitor, default_health_rules
            from .adaptive import HealthSignalSource

            # The standard rules the detector's windows can feed, with
            # the scraper's parameters.
            rules = [
                rule for rule in default_health_rules(self.config.slo_latency)
                if rule.name in ("detector-flapping", "p99-ceiling")
            ]
            sources.append(HealthSignalSource(HealthMonitor(rules)))
            if self.config.history_schedule:
                from .adaptive import HistoryScheduleSource

                sources.append(
                    HistoryScheduleSource(self.config.history_schedule)
                )
        return sources

    def set_cancel_action(self, initiator: CancelInitiator) -> None:
        super().set_cancel_action(initiator)
        self.cancellation.set_initiator(initiator)

    def telemetry_snapshot(self) -> dict:
        """Controller state for the telemetry scraper: cancels, the
        detector's latest sample, signal outcomes, and blame scores."""
        snap = super().telemetry_snapshot()
        snap["detector"] = self.detector.telemetry_snapshot()
        snap["signals"] = self.cancellation.telemetry_snapshot()
        snap["lever"] = self.lever.telemetry_snapshot()
        if self.last_assessment is not None:
            snap["blame"] = self.last_assessment.blame_scores()
        return snap

    # ------------------------------------------------------------------
    # Feedback + monitor loop
    # ------------------------------------------------------------------
    def admit(self, op_name: str, client_id: str) -> bool:
        """ATROPOS does no admission control itself; during *regular*
        overload episodes the fallback controller's admission applies."""
        if self.fallback is not None and self._regular_overload_active:
            return self.fallback.admit(op_name, client_id)
        return True

    def observe_completion(self, record: "RequestRecord") -> None:
        # The detector is the only stage that reads completions.
        self.detector.observe_completion(record)
        if self.fallback is not None:
            self.fallback.observe_completion(record)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.fallback is not None:
            self.fallback.start()
        self.pipeline.start()

    # ------------------------------------------------------------------
    # Re-execution
    # ------------------------------------------------------------------
    def reexecution_gate(self, task: CancellableTask, arrival_time: float):
        decision = yield from self.cancellation.reexecution_gate(
            task, arrival_time
        )
        self.decision_log.record(
            self.env.now,
            DecisionKind.REEXECUTION,
            f"{task.op_name!r} -> {decision}",
            key=task.key,
            waited=round(self.env.now - arrival_time, 3),
        )
        return decision

    def explain(self, limit: Optional[int] = None) -> str:
        """Render the decision timeline (operator-facing)."""
        return self.decision_log.render(limit=limit)

    def _oldest_request_age(self) -> float:
        """Age of the oldest live *user request* task (head-of-line signal).

        Background tasks are excluded: they have no SLO and may legally
        run for a long time.  ``tasks`` is in creation order and a task's
        ``created_at`` is the clock at creation, so the first live
        request is the oldest.
        """
        for task in self.tasks.values():
            if task.kind is TaskKind.REQUEST and task.alive:
                return self.env.now - task.created_at
        return 0.0

    def _is_calm(self) -> bool:
        """No application resource currently over its contention threshold."""
        for resource in self.resources.values():
            norm = self.estimator.contention_norm(resource)
            if norm >= self.config.threshold_for(resource.name):
                return False
        return True
