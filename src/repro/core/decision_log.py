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
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple


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
    """One ranked cancellation candidate with its estimator inputs.

    Rendered on read from an audit's :class:`CandidateColumns`
    (:attr:`DecisionAudit.candidates`); nothing else builds one.
    """

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


#: :class:`CandidateEvidence` field names, in payload order.
_CANDIDATE_FIELDS = tuple(f.name for f in fields(CandidateEvidence))


@dataclass(slots=True, eq=False, repr=False)
class CandidateColumns:
    """An audit's candidates as flat columns, one entry per live task in
    the estimator's task order: no object per candidate.

    ``ages``, ``progress`` and ``scores`` hold the raw floats (the
    audit rounds them when read); ``gains`` is a row-major candidates x
    ``gain_names`` matrix, resources in name order, NaN where the task
    has no positive gain (a stored gain is always ``> 0.0``).
    """

    keys: Sequence[Any] = ()
    op_names: Sequence[str] = ()
    client_ids: Sequence[str] = ()
    kinds: Sequence[str] = ()
    cancellable: Sequence[bool] = ()
    ages: Sequence[float] = ()
    progress: Sequence[float] = ()
    scores: Sequence[float] = ()
    gain_names: Tuple[str, ...] = ()
    gains: Sequence[float] = ()

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"CandidateColumns({len(self)} x {self.gain_names})"

    def _compared(self) -> Tuple[Any, ...]:
        # Floats by their bytes: NaN marks a missing gain and must
        # equal itself.
        return (
            tuple(self.keys), tuple(self.op_names), tuple(self.client_ids),
            tuple(self.kinds), tuple(self.cancellable), bytes(self.ages),
            bytes(self.progress), bytes(self.scores), self.gain_names,
            bytes(self.gains),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateColumns):
            return NotImplemented
        return self._compared() == other._compared()


#: The columns of an audit with no live task (shared: never written).
NO_CANDIDATES = CandidateColumns()


@dataclass(slots=True)
class DecisionAudit:
    """Full evidence chain for one detector trigger -> verdict cycle.

    ``verdict`` is one of ``"cancelled"``, ``"cancel-blocked"``,
    ``"no-candidate"``, ``"regular-overload"``, or -- under a
    non-default mitigation lever (:mod:`repro.core.levers`) --
    ``"lock-reshaped"`` / ``"lever-noop"``.

    The candidates are kept as :class:`CandidateColumns` and rendered
    when something reads them (:attr:`candidates`, :meth:`to_payload`):
    rounded, ranked by score, then marked with the lever's picks
    (:meth:`select`).
    """

    time: float
    detector: DetectorSignal
    resources: List[ResourceEvidence]
    columns: CandidateColumns
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
    #: ``(task key, policy score)`` of each pick, in the order made.
    selections: Tuple[Tuple[Any, float], ...] = ()

    def select(self, task_key: Any, score: float) -> None:
        """Mark the candidate(s) keyed ``task_key`` as the policy's pick,
        carrying the policy's own (unrounded) score."""
        self.selections += ((task_key, score),)

    def _ranking(self) -> List[int]:
        """Candidate rows by rounded score, high first, then key."""
        scores = self.columns.scores
        keys = self.columns.keys
        return sorted(
            range(len(keys)),
            key=lambda i: (-round(scores[i], 9), str(keys[i])),
        )

    def top_op_name(self) -> Optional[str]:
        """The op of the top-ranked candidate (``candidates[0]`` before
        any pick), or None without candidates."""
        ranking = self._ranking()
        return self.columns.op_names[ranking[0]] if ranking else None

    def _rows(self) -> List[list]:
        """The ranked candidates as :class:`CandidateEvidence` field
        lists, picks applied."""
        c = self.columns
        names = c.gain_names
        width = len(names)
        gains = c.gains
        rows = []
        for i in self._ranking():
            start = i * width
            row_gains = {
                name: round(gain, 9)
                for name, gain in zip(names, gains[start:start + width])
                if gain == gain
            }
            rows.append([
                c.keys[i], c.op_names[i], c.client_ids[i], c.kinds[i],
                round(c.ages[i], 6), round(c.progress[i], 6),
                c.cancellable[i], row_gains,
                # No positive gain: the score is an empty sum, int 0.
                round(c.scores[i], 9) if row_gains else 0,
                False,
            ])
        for key, score in self.selections:
            for row in rows:
                if row[0] == key:
                    row[-1] = True
                    row[-2] = score
        return rows

    @property
    def candidates(self) -> List[CandidateEvidence]:
        """The ranked candidate evidence, rendered from the columns."""
        return [CandidateEvidence(*row) for row in self._rows()]

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict (for exporters and the tracer)."""
        return {
            "time": self.time,
            "detector": asdict(self.detector),
            "resources": [asdict(r) for r in self.resources],
            "candidates": [
                dict(zip(_CANDIDATE_FIELDS, row)) for row in self._rows()
            ],
            "verdict": self.verdict,
            "lever": self.lever,
            "culprit_resource": self.culprit_resource,
            "cancelled_task_key": self.cancelled_task_key,
            "cancelled_op_name": self.cancelled_op_name,
            "blocked_reason": self.blocked_reason,
        }


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
