"""Online health monitoring: declarative SLO/invariant rules per window.

The :class:`HealthMonitor` evaluates a list of :class:`HealthRule`
against every telemetry scrape window *while the simulation runs*,
producing a typed :class:`HealthEvent` stream.  Events land in two
places (wired by the scraper): the obs trace (``telemetry:health``
instants) and the run's :class:`~repro.telemetry.scrape.RunTelemetry`,
which the telemetry exports and reports read.  They stay out of the
controller and the campaign payload, so observing a run never changes
what it caches.

Built-in rule kinds (the ``params`` each understands):

==================  ====================================================
``p99-ceiling``     ``limit`` (seconds), ``min_samples`` (default 1):
                    window p99 above the ceiling.
``goodput-floor``   ``floor`` (req/s): windowed goodput below the floor
                    while load is offered.
``cancel-storm``    ``max_per_window`` (default 3): too many
                    cancellations inside one scrape window.
``detector-flapping``  ``transitions`` (default 3), ``lookback``
                    (default 8): the overload trigger toggled too often
                    across the trailing windows.
``wrong-culprit-rate``  ``expected`` (op names), ``max_rate``
                    (default 0.0): delivered cancellations hit ops
                    outside the expected culprit set too often.
==================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class HealthRule:
    """One declarative health rule (see module docstring for kinds)."""

    name: str
    kind: str
    severity: str = "warn"
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class HealthEvent:
    """One rule violation observed in one scrape window."""

    time: float
    rule: str
    kind: str
    severity: str
    value: float
    threshold: float
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": round(self.time, 9),
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "value": None if self.value != self.value
            else round(self.value, 9),
            "threshold": round(self.threshold, 9),
            "message": self.message,
        }


def default_health_rules(
    slo: Optional[float] = None,
    expected_culprits: Optional[Sequence[str]] = None,
) -> List[HealthRule]:
    """The standard rule set, each rule spelled here once.

    ``p99-ceiling`` needs a SLO and ``wrong-culprit`` the expected
    culprits; each appears only when given.  The telemetry scraper, the
    cluster coordinator and the mesh evaluate the whole set; the
    adaptive controller and :func:`series_health_counts` pick the rules
    their windows can feed.  ``goodput-floor`` is reachable only through
    an explicit rule list.
    """
    rules = [
        HealthRule(
            name="cancel-storm", kind="cancel-storm", severity="critical",
            params={"max_per_window": 3},
        ),
        HealthRule(
            name="detector-flapping", kind="detector-flapping",
            params={"transitions": 3, "lookback": 8},
        ),
    ]
    if slo is not None:
        rules.append(
            HealthRule(
                name="p99-ceiling", kind="p99-ceiling", severity="critical",
                params={"limit": 5.0 * slo, "min_samples": 3},
            )
        )
    if expected_culprits:
        rules.append(
            HealthRule(
                name="wrong-culprit", kind="wrong-culprit-rate",
                severity="critical",
                params={"expected": tuple(expected_culprits),
                        "max_rate": 0.0},
            )
        )
    return rules


class HealthMonitor:
    """Evaluates rules against successive scrape windows.

    Stateful where a rule needs memory (flapping lookback, cumulative
    culprit accounting); all state is derived from window values, so the
    event stream is as deterministic as the windows themselves.
    """

    def __init__(self, rules: Sequence[HealthRule]) -> None:
        self.rules = list(rules)
        self.events: List[HealthEvent] = []
        self._overload_history: List[float] = []
        self._cancels_total = 0
        self._wrong_total = 0

    def evaluate(
        self,
        t: float,
        values: Mapping[str, float],
        cancelled_ops: Sequence[str] = (),
    ) -> List[HealthEvent]:
        """Evaluate all rules for the window ending at ``t``.

        Args:
            t: window end (simulated seconds).
            values: the window's flat value map (see Scraper).
            cancelled_ops: ops of cancellations *delivered* this window.
        """
        self._overload_history.append(
            values.get("detector_overloaded", 0.0)
        )
        fired: List[HealthEvent] = []
        for rule in self.rules:
            event = self._evaluate_one(rule, t, values, cancelled_ops)
            if event is not None:
                fired.append(event)
        # Cumulative culprit accounting rolls forward once per window.
        self._account_culprits(cancelled_ops)
        self.events.extend(fired)
        return fired

    # ------------------------------------------------------------------
    # Rule evaluators
    # ------------------------------------------------------------------
    def _evaluate_one(
        self,
        rule: HealthRule,
        t: float,
        values: Mapping[str, float],
        cancelled_ops: Sequence[str],
    ) -> Optional[HealthEvent]:
        params = rule.params
        if rule.kind == "p99-ceiling":
            p99 = values.get("p99", float("nan"))
            limit = float(params["limit"])
            enough = values.get("completed_window", 0.0) >= float(
                params.get("min_samples", 1)
            )
            if enough and p99 == p99 and p99 > limit:
                return self._event(
                    rule, t, p99, limit,
                    f"window p99 {p99 * 1000:.1f}ms over ceiling "
                    f"{limit * 1000:.1f}ms",
                )
        elif rule.kind == "goodput-floor":
            floor = float(params["floor"])
            goodput = values.get("goodput", float("nan"))
            offered = values.get("offered_window", 0.0)
            if offered > 0 and goodput == goodput and goodput < floor:
                return self._event(
                    rule, t, goodput, floor,
                    f"goodput {goodput:.1f}/s under floor {floor:.1f}/s",
                )
        elif rule.kind == "cancel-storm":
            limit = float(params.get("max_per_window", 3))
            cancels = values.get("cancels_window", 0.0)
            if cancels >= limit:
                return self._event(
                    rule, t, cancels, limit,
                    f"{int(cancels)} cancellations in one window",
                )
        elif rule.kind == "detector-flapping":
            lookback = int(params.get("lookback", 8))
            limit = float(params.get("transitions", 3))
            recent = self._overload_history[-lookback:]
            transitions = sum(
                1 for a, b in zip(recent, recent[1:]) if a != b
            )
            if transitions >= limit:
                return self._event(
                    rule, t, float(transitions), limit,
                    f"detector toggled {transitions}x over "
                    f"{len(recent)} windows",
                )
        elif rule.kind == "wrong-culprit-rate":
            expected = set(params.get("expected", ()))
            max_rate = float(params.get("max_rate", 0.0))
            wrong_now = [op for op in cancelled_ops if op not in expected]
            if wrong_now:
                total = self._cancels_total + len(cancelled_ops)
                wrong = self._wrong_total + len(wrong_now)
                rate = wrong / total if total else 0.0
                if rate > max_rate:
                    return self._event(
                        rule, t, rate, max_rate,
                        f"cancelled non-culprit op(s) "
                        f"{sorted(set(wrong_now))} "
                        f"(wrong-culprit rate {rate:.2f})",
                    )
        else:
            raise ValueError(f"unknown health-rule kind {rule.kind!r}")
        return None

    def _account_culprits(self, cancelled_ops: Sequence[str]) -> None:
        for rule in self.rules:
            if rule.kind == "wrong-culprit-rate":
                expected = set(rule.params.get("expected", ()))
                self._cancels_total += len(cancelled_ops)
                self._wrong_total += sum(
                    1 for op in cancelled_ops if op not in expected
                )
                break

    def _event(
        self,
        rule: HealthRule,
        t: float,
        value: float,
        threshold: float,
        message: str,
    ) -> HealthEvent:
        return HealthEvent(
            time=t,
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            value=value,
            threshold=threshold,
            message=message,
        )


def series_health_counts(
    series: Mapping[str, Any],
    rules: Optional[Sequence[HealthRule]] = None,
) -> Dict[str, int]:
    """Health-event counts by rule over a serialized window series.

    Replays the window rules against a
    :func:`repro.telemetry.series.window_series` payload (the shape
    campaign extras cache), so ``repro regress`` gets per-rule event
    counts from cached runs without a telemetry session.  Every rule in
    play appears in the result, zero-count rules included, keys sorted.
    The default rules are the standard ones a serialized series can
    feed: it carries per-window p99 / completion / cancellation values
    but no live detector trigger, so ``detector-flapping`` is left out.
    """
    window = float(series.get("window") or 0.0) or 1.0
    if rules is None:
        rules = [
            rule for rule in default_health_rules(series.get("slo"))
            if rule.name in ("cancel-storm", "p99-ceiling")
        ]
    monitor = HealthMonitor(rules)
    p99s = series.get("p99", ())
    throughputs = series.get("throughput", ())
    cancels = series.get("cancels", ())
    for i, end in enumerate(series.get("end", ())):
        p99 = p99s[i] if i < len(p99s) else None
        values = {
            "p99": float("nan") if p99 is None else float(p99),
            "completed_window": (
                float(throughputs[i]) * window
                if i < len(throughputs) else 0.0
            ),
            "cancels_window": (
                float(cancels[i]) if i < len(cancels) else 0.0
            ),
        }
        monitor.evaluate(float(end), values)
    counts = {rule.name: 0 for rule in rules}
    for event in monitor.events:
        counts[event.rule] = counts.get(event.rule, 0) + 1
    return {name: counts[name] for name in sorted(counts)}


def worst_severity(events: Sequence[HealthEvent]) -> Optional[str]:
    """'critical' > 'warn' > None, for timeline colouring."""
    if any(e.severity == "critical" for e in events):
        return "critical"
    if events:
        return "warn"
    return None
