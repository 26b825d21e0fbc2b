"""Structured decision log: what ATROPOS observed, decided, and did.

Every detector activation, overload classification, cancellation, and
re-execution outcome is recorded as a typed event, giving operators an
explainable timeline ("why did my query get killed at 12:01:03?") --
table stakes for an overload controller anyone would deploy.

Enabled by default (events are tiny) and kept whole; render with
:meth:`DecisionLog.render` or query with :meth:`DecisionLog.events_of`.

Beyond the flat event timeline, the log also keeps a **decision-audit
trail**: one :class:`DecisionAudit` per detector trigger, carrying the
full evidence chain that produced the verdict -- the detector signal
(tail latency, throughput, head-of-line age), the per-resource
contention reports, the candidate ranking with per-resource gains, and
the final verdict (cancelled / blocked / regular overload).  Audits are
what ``repro trace --audit`` exports and what the acceptance invariant
"every cancellation has an audit record" is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


class DecisionKind(enum.Enum):
    #: The detector flagged a potential overload (tail or head-of-line).
    DETECTION = "detection"
    #: The estimator classified it: resource overload vs regular demand.
    CLASSIFICATION = "classification"
    #: A cancellation was issued to a culprit task.
    CANCELLATION = "cancellation"
    #: A cancellation was considered but blocked (cooldown, no candidate,
    #: thread-level flag, ...).
    CANCEL_BLOCKED = "cancel-blocked"
    #: A cancelled request's re-execution gate resolved (retry/drop).
    REEXECUTION = "reexecution"
    #: A fault was injected into (or lifted from) the run
    #: (:mod:`repro.faults`); correlates faults with (mis)cancellations.
    FAULT = "fault"
    #: An :class:`~repro.core.adaptive.AdaptiveThresholdPolicy` moved a
    #: live detector threshold (window widened on flapping, tail trigger
    #: tightened after sustained p99 violations, or a recovery step).
    ADAPT = "adapt"
    #: A mitigation lever acted (or chose between mitigations): lock
    #: waiters parked/reactivated by the
    #: :class:`~repro.core.levers.LockScheduleLever`, or a
    #: :class:`~repro.core.levers.CompositeLever` per-decision choice.
    LEVER = "lever"


@dataclass(slots=True)
class DecisionEvent:
    """One entry in the decision timeline."""

    time: float
    kind: DecisionKind
    summary: str
    details: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extras = ""
        if self.details:
            pairs = ", ".join(
                f"{k}={v}" for k, v in sorted(self.details.items())
            )
            extras = f"  [{pairs}]"
        return f"t={self.time:8.3f}s  {self.kind.value:<14}  {self.summary}{extras}"


@dataclass(slots=True)
class DetectorSignal:
    """The detector observation that triggered an audit cycle."""

    tail_latency: Optional[float]
    throughput: Optional[float]
    samples: Optional[int]
    oldest_inflight_age: float


@dataclass(slots=True)
class ResourceEvidence:
    """Estimator output for one resource, as recorded in an audit."""

    resource: str
    rtype: str
    contention_raw: float
    contention_norm: float
    threshold: float
    overloaded: bool
    concentrated: bool
    gain_skew: float


@dataclass(slots=True)
class CandidateEvidence:
    """One ranked cancellation candidate with its estimator inputs."""

    task_key: Any
    op_name: str
    client_id: str
    kind: str
    age: float
    progress: float
    cancellable: bool
    #: resource name -> expected gain from cancelling this task.
    gains: Dict[str, float] = field(default_factory=dict)
    #: Contention-weighted scalarized score (None if not scored, e.g.
    #: dominated candidates under Algorithm 1).
    score: Optional[float] = None
    selected: bool = False


@dataclass(slots=True)
class DecisionAudit:
    """Full evidence chain for one detector trigger -> verdict cycle.

    ``verdict`` is one of ``"cancelled"``, ``"cancel-blocked"``,
    ``"no-candidate"``, ``"regular-overload"``, or -- under a
    non-default mitigation lever (:mod:`repro.core.levers`) --
    ``"lock-reshaped"`` / ``"lever-noop"``.
    """

    time: float
    detector: DetectorSignal
    resources: List[ResourceEvidence]
    candidates: List[CandidateEvidence]
    verdict: str
    #: Mitigation lever that produced the verdict (None on the default
    #: cancel path, keeping historical payloads' ``lever`` absent-as-None).
    lever: Optional[str] = None
    #: Name of the contended resource the verdict names (None when the
    #: window was classified as regular overload with no clear culprit).
    culprit_resource: Optional[str] = None
    #: Key of the cancelled task (verdict == "cancelled" only).
    cancelled_task_key: Any = None
    cancelled_op_name: Optional[str] = None
    #: Why a cancel was blocked (cooldown, thread-level flag, ...).
    blocked_reason: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict (for exporters and the tracer)."""
        return asdict(self)


class DecisionLog:
    """In-memory decision timeline plus the audit trail.

    Keeps every event and audit of the run: it grows with the run, like
    :attr:`~repro.sim.metrics.MetricsCollector.records`.
    """

    def __init__(self) -> None:
        self._events: List[DecisionEvent] = []
        self._audits: List[DecisionAudit] = []

    def record(
        self,
        time: float,
        kind: DecisionKind,
        summary: str,
        **details: Any,
    ) -> DecisionEvent:
        event = DecisionEvent(
            time=time, kind=kind, summary=summary, details=details
        )
        self._events.append(event)
        return event

    def record_audit(self, audit: DecisionAudit) -> DecisionAudit:
        """Append one decision audit."""
        self._audits.append(audit)
        return audit

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[DecisionEvent]:
        return list(self._events)

    @property
    def audits(self) -> List[DecisionAudit]:
        return list(self._audits)

    def cancellation_audits(self) -> List[DecisionAudit]:
        """Audits whose verdict was an executed cancellation."""
        return [a for a in self._audits if a.verdict == "cancelled"]

    def audit_for_task(self, task_key: Any) -> Optional[DecisionAudit]:
        """The audit that cancelled ``task_key``, if any."""
        for audit in self._audits:
            if audit.verdict == "cancelled" and audit.cancelled_task_key == task_key:
                return audit
        return None

    def events_of(self, kind: DecisionKind) -> List[DecisionEvent]:
        return [e for e in self._events if e.kind is kind]

    def between(self, start: float, end: float) -> List[DecisionEvent]:
        return [e for e in self._events if start <= e.time < end]

    def __len__(self) -> int:
        return len(self._events)

    def render(
        self,
        kinds: Optional[List[DecisionKind]] = None,
        limit: Optional[int] = None,
    ) -> str:
        """Human-readable timeline (optionally filtered / truncated)."""
        events = self._events
        if kinds is not None:
            wanted = set(kinds)
            events = [e for e in events if e.kind in wanted]
        if limit is not None:
            events = events[-limit:]
        lines = [e.render() for e in events]
        return "\n".join(lines) if lines else "(no decisions recorded)"
