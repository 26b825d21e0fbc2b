"""Interprets a :class:`~repro.faults.plan.FaultPlan` against a live run.

The :class:`FaultInjector` is built by
:func:`repro.experiments.harness.run_simulation` when a plan is passed:
it spawns one simulation process per fault, which sleeps until the
fault's ``at``, applies it, and (for bounded faults) reverts it at the
window end.  Every injection and revert

* is appended to :attr:`FaultInjector.events` (JSON-able, deterministic
  -- this is what lands in campaign extras),
* emits an ``obs`` trace instant on the ``faults`` track when tracing is
  active, and
* is recorded in the controller's decision log as a
  :attr:`~repro.core.decision_log.DecisionKind.FAULT` event when the
  controller keeps one, so experiments can correlate faults with
  (mis)cancellations in a single timeline.

The injector reads the controller through the attributes
:class:`~repro.core.controller.BaseController` declares
(``decision_log``, ``detector``, ``estimator``, ``cancellation``); a
controller without one leaves it ``None``.

Application is *defensive by design*: a fault whose target does not
exist in this run -- a ``degrade`` naming a resource the app lacks, a
signal fault against a baseline controller with no detector, a
cancellation fault against a controller with no cancellation manager --
is recorded with ``applied=False`` instead of crashing the run.  The
chaos matrix sweeps one fault grid across heterogeneous systems and
relies on this.

``partition`` and ``crash`` cut the cancellation path: a harness run has
no task tree, so every cancel delivery fails for the window.  A signal
lost to them, or to ``cancel-drop``, is counted in the manager's
``dropped_signals`` and not logged: the cancellation log holds only the
cancels that reached their task.

Determinism: all randomness (signal noise, signal drops) comes from a
dedicated RNG stream forked from the run seed, so faulted runs are
byte-reproducible and cache/parallel-safe like clean ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.controller import BaseController
from ..core.decision_log import DecisionKind
from ..workloads.spec import OpenLoopSource
from .plan import Fault, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.rng import Rng
    from ..workloads.driver import Driver


@dataclass
class FaultEvent:
    """One injection or revert, as recorded in the run's fault log."""

    time: float
    kind: str
    #: ``"inject"`` or ``"restore"``.
    phase: str
    #: False when the fault had no target in this run (recorded, not an
    #: error -- e.g. a detector fault against a baseline controller).
    applied: bool
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": round(self.time, 9),
            "kind": self.kind,
            "phase": self.phase,
            "applied": self.applied,
            "detail": self.detail,
        }


class SignalTap:
    """Corrupts a scalar signal stream: lag, then bias, then noise.

    Installed on :attr:`OverloadDetector.fault_tap` /
    :attr:`Estimator.gain_tap` by the injector.  With ``lag > 0`` the
    tap reports the raw value observed ``lag`` seconds ago (the oldest
    buffered sample until enough history accumulates).  Noise is
    multiplicative Gaussian, floored at zero so latencies and gains stay
    physical; NaN inputs (no samples in the window) pass through
    untouched.
    """

    def __init__(
        self,
        rng: "Rng",
        noise: float = 0.0,
        lag: float = 0.0,
        bias: float = 1.0,
    ) -> None:
        self.rng = rng
        self.noise = noise
        self.lag = lag
        self.bias = bias
        self._history: deque = deque()

    def __call__(self, now: float, value: float) -> float:
        if value != value:  # NaN: nothing to corrupt
            return value
        out = value
        if self.lag > 0.0:
            self._history.append((now, value))
            cutoff = now - self.lag
            while len(self._history) > 1 and self._history[1][0] <= cutoff:
                self._history.popleft()
            out = self._history[0][1]
        out *= self.bias
        if self.noise > 0.0:
            out *= max(0.0, 1.0 + self.rng.normal(0.0, self.noise))
        return out


class FaultInjector:
    """Schedules and applies one plan's faults over a simulation run."""

    def __init__(self, env: "Environment", plan: FaultPlan, rng: "Rng") -> None:
        self.env = env
        self.plan = plan
        self.rng = rng
        #: Deterministic record of every injection/revert.
        self.events: List[FaultEvent] = []
        #: Applied-and-not-yet-reverted fault count (telemetry gauge).
        self.active_faults = 0
        self._app: Any = None
        self._controller = BaseController(env)
        self._driver: Optional["Driver"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def arm(
        self,
        app: Any = None,
        controller: Optional[BaseController] = None,
        driver: Optional["Driver"] = None,
    ) -> None:
        """Bind run components and spawn one process per planned fault.

        Without a controller, the faults meet the no-op
        :class:`~repro.core.controller.BaseController`, which has
        nothing to corrupt or fail."""
        self._app = app
        if controller is not None:
            self._controller = controller
        self._driver = driver
        for fault in self.plan:
            self.env.process(self._fault_process(fault))

    # ------------------------------------------------------------------
    # Per-fault lifecycle
    # ------------------------------------------------------------------
    def _fault_process(self, fault: Fault):
        if fault.at > 0.0:
            yield self.env.timeout(fault.at)
        applied, detail, revert = self._apply(fault)
        if applied:
            self.active_faults += 1
        self._record(fault, "inject", applied, detail)
        if fault.duration is not None:
            yield self.env.timeout(fault.duration)
            if revert is not None:
                revert()
            if applied:
                self.active_faults -= 1
            self._record(fault, "restore", applied, detail)

    def _record(
        self, fault: Fault, phase: str, applied: bool, detail: str
    ) -> None:
        now = self.env.now
        self.events.append(
            FaultEvent(
                time=now, kind=fault.kind, phase=phase,
                applied=applied, detail=detail,
            )
        )
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                now,
                "fault",
                f"{phase} {fault.kind}",
                "faults",
                applied=applied,
                detail=detail,
            )
        log = self._controller.decision_log
        if log is not None:
            log.record(
                now,
                DecisionKind.FAULT,
                f"{phase} {fault.kind}",
                applied=applied,
                detail=detail,
            )

    def _apply(
        self, fault: Fault
    ) -> Tuple[bool, str, Optional[Callable[[], None]]]:
        """Dispatch one fault; returns (applied, detail, revert)."""
        handler = getattr(self, "_apply_" + fault.kind.replace("-", "_"))
        return handler(fault)

    # ------------------------------------------------------------------
    # Resource degradation
    # ------------------------------------------------------------------
    def _find_resource(self, target: str) -> Optional[Any]:
        """Resolve ``target`` to one of the app's registered resources.

        Matches the full sim-resource name (``mysql.buffer_pool``) or a
        dotted suffix (``buffer_pool``), so plans stay portable across
        applications that follow the ``<app>.<resource>`` convention.
        Every registered resource is a candidate -- a lock in a per-
        table list too -- so one lacking a real ``degrade()`` reports
        *that*, not "no match".
        """
        if self._app is None:
            return None
        for sim in self._app.resources():
            if sim.name == target or sim.name.endswith("." + target):
                return sim
        return None

    def _apply_degrade(self, fault: Fault):
        target = fault.param("resource")
        factor = fault.param("factor")
        resource = self._find_resource(target)
        if resource is None:
            return False, f"no degradable resource matching {target!r}", None
        try:
            resource.degrade(factor)
        except NotImplementedError:
            return False, f"{resource.name} has no degrade() hook", None
        return (
            True,
            f"{resource.name} degraded to {factor:g}x nominal",
            resource.restore,
        )

    # ------------------------------------------------------------------
    # Signal corruption
    # ------------------------------------------------------------------
    def _apply_detector_noise(self, fault: Fault):
        detector = self._controller.detector
        if detector is None:
            return False, "controller has no detector tap", None
        tap = SignalTap(
            self.rng.fork("detector-tap"),
            noise=fault.param("noise", 0.0),
            lag=fault.param("lag", 0.0),
            bias=fault.param("bias", 1.0),
        )
        detector.fault_tap = tap

        def revert(detector=detector):
            detector.fault_tap = None

        return (
            True,
            f"detector tail-latency tap (noise={fault.param('noise', 0.0):g}, "
            f"lag={fault.param('lag', 0.0):g}, bias={fault.param('bias', 1.0):g})",
            revert,
        )

    def _apply_estimator_noise(self, fault: Fault):
        estimator = self._controller.estimator
        if estimator is None:
            return False, "controller has no estimator tap", None
        tap = SignalTap(
            self.rng.fork("estimator-tap"),
            noise=fault.param("noise", 0.0),
            bias=fault.param("bias", 1.0),
        )
        estimator.gain_tap = tap

        def revert(estimator=estimator):
            estimator.gain_tap = None

        return (
            True,
            f"estimator gain tap (noise={fault.param('noise', 0.0):g}, "
            f"bias={fault.param('bias', 1.0):g})",
            revert,
        )

    # ------------------------------------------------------------------
    # Cancellation failures
    # ------------------------------------------------------------------
    def _apply_cancel_delay(self, fault: Fault):
        manager = self._controller.cancellation
        if manager is None:
            return False, "controller has no cancellation manager", None
        delay = fault.param("delay")
        manager.initiator_delay = delay

        def revert(manager=manager):
            manager.initiator_delay = 0.0

        return True, f"initiator delayed by {delay:g}s", revert

    def _apply_cancel_drop(self, fault: Fault):
        manager = self._controller.cancellation
        if manager is None:
            return False, "controller has no cancellation manager", None
        probability = fault.param("probability")
        manager.drop_probability = probability
        manager.fault_rng = self.rng.fork("cancel-drop")

        def revert(manager=manager):
            manager.drop_probability = 0.0

        return True, f"signals dropped with p={probability:g}", revert

    def _apply_uncancellable(self, fault: Fault):
        manager = self._controller.cancellation
        if manager is None:
            return False, "controller has no cancellation manager", None
        manager.suspended = True

        def revert(manager=manager):
            manager.suspended = False

        return True, "all tasks un-cancellable", revert

    # ------------------------------------------------------------------
    # Workload bursts
    # ------------------------------------------------------------------
    def _burstable_sources(self) -> List[OpenLoopSource]:
        """The open-loop sources of the driver's workload (the only
        sources with a rate to raise)."""
        driver = self._driver
        if driver is None or driver.workload is None:
            return []
        return [
            source
            for source in driver.workload.sources
            if isinstance(source, OpenLoopSource)
        ]

    def _apply_burst(self, fault: Fault):
        factor = fault.param("factor")
        sources = self._burstable_sources()
        if not sources:
            return False, "no open-loop sources to burst", None
        for source in sources:
            source.burst_factor *= factor

        def revert(sources=sources, factor=factor):
            for source in sources:
                source.burst_factor /= factor

        return (
            True,
            f"{len(sources)} source(s) burst to {factor:g}x rate",
            revert,
        )

    # ------------------------------------------------------------------
    # Partition / crash
    # ------------------------------------------------------------------
    def _apply_partition(self, fault: Fault):
        return self._node_fault(fault, crash=False)

    def _apply_crash(self, fault: Fault):
        return self._node_fault(fault, crash=True)

    def _node_fault(self, fault: Fault, crash: bool):
        """A harness run has no task tree, so the partitioned or crashed
        peer is the cancellation initiator itself: every cancel delivery
        fails for the window."""
        verb = "crash" if crash else "partition"
        manager = self._controller.cancellation
        if manager is None:
            return False, f"nothing to {verb} (no nodes, no initiator)", None
        manager.drop_probability = 1.0
        manager.fault_rng = manager.fault_rng or self.rng.fork(verb)

        def revert(manager=manager):
            manager.drop_probability = 0.0

        return True, "cancel deliveries fail", revert
