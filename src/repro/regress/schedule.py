"""Derive per-case threshold schedules from baseline history.

Closes the Autothrottle-style loop (arxiv 2212.12180: mined performance
history beats static thresholds): the baseline snapshot already records
*when* each case's tail latency blows past the health ceiling, so a
future run does not need to wait for the in-loop adaptive policy to
re-learn that -- it can walk into the run with a schedule that
tightens the tail trigger just before the known-bad phase and relaxes
it after.

:func:`derive_schedule` mines one capture's per-window p99 series for
sustained violations of the ``p99-ceiling`` health rule (its ceiling and
minimum sample count, read from
:func:`~repro.telemetry.health.default_health_rules`, held for
``AtroposConfig.adapt_p99_sustain`` windows by default) and emits
``{"time", "param", "value"}`` entries consumable by
:attr:`repro.core.config.AtroposConfig.history_schedule`; the
:class:`repro.core.adaptive.HistoryScheduleSource` publishes due
entries in-run and the
:class:`~repro.core.adaptive.AdaptiveThresholdPolicy` applies them as
audited ``DecisionKind.ADAPT`` moves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.config import AtroposConfig
from ..telemetry.health import default_health_rules
from .baseline import CaseCapture, RegressBaseline

#: Tightened tail trigger during a known-bad phase.
TIGHT_SLACK = 1.05
#: Relaxed (default-config) tail trigger outside bad phases.
BASE_SLACK = 1.2


def derive_schedule(
    capture: CaseCapture,
    tight_slack: float = TIGHT_SLACK,
    base_slack: float = BASE_SLACK,
    sustain: int = AtroposConfig.adapt_p99_sustain,
) -> List[Dict[str, Any]]:
    """Mine one capture's p99 series into a threshold schedule.

    Returns time-sorted entries; empty when the capture has no series,
    no SLO, or no sustained ceiling phase.  A tighten entry lands at
    the *start* of each sustained phase (the run reacts immediately
    instead of waiting out the sustain counter) and a relax entry one
    window after it ends.
    """
    series = capture.series
    if not series or series.get("slo") is None:
        return []
    slo = float(series["slo"])
    window = float(series.get("window") or 0.0)
    ceiling = next(
        rule for rule in default_health_rules(slo)
        if rule.name == "p99-ceiling"
    )
    limit = float(ceiling.params["limit"])
    min_samples = float(ceiling.params["min_samples"])
    ends = series.get("end", ())
    p99s = series.get("p99", ())
    throughput = series.get("throughput", ())
    violating: List[bool] = []
    for i in range(len(ends)):
        p99 = p99s[i] if i < len(p99s) else None
        samples = (
            float(throughput[i]) * window if i < len(throughput) else 0.0
        )
        violating.append(
            p99 is not None and samples >= min_samples and p99 > limit
        )
    schedule: List[Dict[str, Any]] = []
    i = 0
    n = len(violating)
    while i < n:
        if not violating[i]:
            i += 1
            continue
        j = i
        while j < n and violating[j]:
            j += 1
        if j - i >= sustain:
            # Phase [i, j): tighten at the start of window i (one
            # window before its end), relax one window after the end.
            start = max(0.0, float(ends[i]) - window)
            schedule.append(
                {
                    "time": round(start, 9),
                    "param": "slo_slack",
                    "value": tight_slack,
                }
            )
            relax = float(ends[j - 1]) + window
            schedule.append(
                {
                    "time": round(relax, 9),
                    "param": "slo_slack",
                    "value": base_slack,
                }
            )
        i = j
    return schedule


def derive_schedules(
    baseline: RegressBaseline,
    tight_slack: float = TIGHT_SLACK,
    base_slack: float = BASE_SLACK,
) -> Dict[str, List[Dict[str, Any]]]:
    """Per-capture schedules for a whole baseline (empty ones omitted)."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for capture in baseline.cases:
        schedule = derive_schedule(
            capture, tight_slack=tight_slack, base_slack=base_slack
        )
        if schedule:
            out[capture.name] = schedule
    return out


def schedule_overrides(
    schedule: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Config overlay (``RunSpec.overlay``) enabling a derived schedule.

    History schedules ride on the adaptive pipeline (they need the
    AdaptiveThresholdPolicy to apply and audit the moves), so the
    overrides switch adaptive thresholds on alongside the schedule.
    """
    return {
        "adaptive_thresholds": True,
        "history_schedule": list(schedule),
    }
