"""Health-driven adaptive thresholds: the first real AdaptationPolicy.

Closes the loop the telemetry layer opened: the controller consumes its
*own* health-event stream -- evaluated in-loop over the detector's
windows with the same rule engine the telemetry scraper uses
(:mod:`repro.telemetry.health`) -- and tunes the live
:class:`~repro.core.detector.OverloadDetector` thresholds between
windows:

* while ``detector-flapping`` fires, the detection window widens (a
  noisy trigger wants more evidence before acting);
* after sustained ``p99-ceiling`` violations, the tail-latency trigger
  tightens (``slo_slack`` steps toward 1.0, reacting earlier);
* after a long healthy streak, both recover one step toward the
  configured baselines.

Every change is recorded as a :class:`~repro.core.decision_log.
DecisionKind.ADAPT` event with the old and new values, so adaptive runs
stay fully auditable and -- because the inputs are the deterministic
detector windows -- byte-identical per seed.

Off by default: build :class:`~repro.core.config.AtroposConfig` with
``adaptive_thresholds=True`` (or pass ``--adaptive`` / use ``repro
run ablate-adaptive`` on the CLI) to enable it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from .decision_log import DecisionKind, DecisionLog
from .pipeline import AdaptationPolicy, SignalSource

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.health import HealthMonitor
    from .config import AtroposConfig
    from .detector import OverloadDetector


class HealthSignalSource(SignalSource):
    """Evaluates health rules against the detector's window signals.

    Must be placed *after* the detector source in the pipeline: it maps
    the detector keys the previous source produced
    (``potential_overload``, ``detector_tail_latency``,
    ``detector_samples``) onto the value map the
    :class:`~repro.telemetry.health.HealthMonitor` rules expect, and
    publishes the fired events as the ``health_events`` signal.
    """

    name = "health"

    def __init__(self, monitor: "HealthMonitor") -> None:
        self.monitor = monitor

    def sample(self, now: float, signals: Dict[str, Any]) -> None:
        values = {
            "detector_overloaded": (
                1.0 if signals.get("potential_overload") else 0.0
            ),
            "p99": signals.get("detector_tail_latency", float("nan")),
            "completed_window": float(signals.get("detector_samples", 0)),
        }
        signals["health_events"] = self.monitor.evaluate(now, values)


class HistoryScheduleSource(SignalSource):
    """Publishes history-mined threshold targets when their time comes.

    The schedule (:attr:`repro.core.config.AtroposConfig.
    history_schedule`, typically derived by
    :func:`repro.regress.schedule.derive_schedule` from a regress
    baseline's per-window history) is sorted once; each tick the due
    entries are published as the ``history_targets`` signal and the
    :class:`AdaptiveThresholdPolicy` applies them as audited
    ``DecisionKind.ADAPT`` moves.  Purely time-driven, so scheduled
    runs stay byte-identical per seed.
    """

    name = "history-schedule"

    def __init__(self, schedule) -> None:
        self._entries = sorted(
            (dict(entry) for entry in schedule),
            key=lambda entry: (entry["time"], entry["param"]),
        )
        self._cursor = 0

    def sample(self, now: float, signals: Dict[str, Any]) -> None:
        due: List[Dict[str, Any]] = []
        while (
            self._cursor < len(self._entries)
            and self._entries[self._cursor]["time"] <= now
        ):
            due.append(self._entries[self._cursor])
            self._cursor += 1
        if due:
            signals["history_targets"] = due


class AdaptiveThresholdPolicy(AdaptationPolicy):
    """Widen on flapping, tighten on sustained p99, relax on recovery."""

    name = "health-adaptive"

    def __init__(
        self,
        detector: "OverloadDetector",
        config: "AtroposConfig",
        decision_log: DecisionLog,
    ) -> None:
        self.detector = detector
        self.config = config
        self.decision_log = decision_log
        #: Count of threshold moves (surfaced in campaign extras).
        self.adaptations = 0
        #: JSON-able change records (time, param, old, new, reason).
        self.adapt_events: List[Dict[str, Any]] = []
        self._p99_streak = 0
        self._healthy_streak = 0

    def adapt(self, now: float, signals: Dict[str, Any]) -> None:
        cfg = self.config
        # History-mined targets first: a schedule encodes *known* phase
        # boundaries, so it outranks this window's reactive evidence
        # (which may immediately refine the scheduled value).
        for target in signals.get("history_targets", ()):
            self._move(
                now,
                target["param"],
                float(target["value"]),
                "history-schedule",
            )
        events = signals.get("health_events", ())
        flapping = any(e.kind == "detector-flapping" for e in events)
        ceiling = any(e.kind == "p99-ceiling" for e in events)
        self._p99_streak = self._p99_streak + 1 if ceiling else 0
        if flapping or ceiling:
            self._healthy_streak = 0
        else:
            self._healthy_streak += 1
        live = self.detector.live
        if flapping:
            widened = min(
                cfg.detection_window * cfg.adapt_max_window_multiple,
                live.detection_window * cfg.adapt_window_widen_factor,
            )
            self._move(now, "detection_window", widened, "detector-flapping")
        if self._p99_streak >= cfg.adapt_p99_sustain:
            tightened = max(
                cfg.adapt_min_slack,
                live.slo_slack - cfg.adapt_slack_tighten_step,
            )
            self._move(now, "slo_slack", tightened, "sustained-p99-ceiling")
        if self._healthy_streak >= cfg.adapt_recovery_windows:
            # One recovery step per healthy streak, then re-arm: the
            # thresholds walk back stepwise, not in one jump.
            self._healthy_streak = 0
            if live.detection_window > cfg.detection_window:
                self._move(
                    now,
                    "detection_window",
                    max(
                        cfg.detection_window,
                        live.detection_window / cfg.adapt_window_widen_factor,
                    ),
                    "recovery",
                )
            if live.slo_slack < cfg.slo_slack:
                self._move(
                    now,
                    "slo_slack",
                    min(
                        cfg.slo_slack,
                        live.slo_slack + cfg.adapt_slack_tighten_step,
                    ),
                    "recovery",
                )

    def _move(
        self, now: float, param: str, value: float, reason: str
    ) -> None:
        """Apply one threshold move; records ADAPT only on real changes."""
        old = getattr(self.detector.live, param)
        if value == old:
            return
        if param == "detection_window":
            self.detector.set_detection_window(value)
        else:
            self.detector.set_slo_slack(value)
        self.adaptations += 1
        self.adapt_events.append(
            {
                "time": round(now, 9),
                "param": param,
                "old": round(old, 9),
                "new": round(value, 9),
                "reason": reason,
            }
        )
        self.decision_log.record(
            now,
            DecisionKind.ADAPT,
            f"{param}: {old:.4g} -> {value:.4g}",
            param=param,
            old=round(old, 6),
            new=round(value, 6),
            reason=reason,
        )
