"""Test-only reference for a decision audit's candidate evidence.

:func:`eager_candidates` is the evidence builder as it stood before an
audit kept its candidates as flat columns: one :class:`EagerCandidate`
and one rounded ``gains`` dict per live task, built when the audit
starts, rounded there and sorted at once; :func:`mark_selected` is the
loop a lever then ran over that list for each pick.  Slow and obviously
right, which is what a differential test wants
(``test_audit_evidence.py``).  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: A decision audit's payload keys, in order.
AUDIT_FIELDS = (
    "time", "detector", "resources", "candidates", "verdict", "lever",
    "culprit_resource", "cancelled_task_key", "cancelled_op_name",
    "blocked_reason",
)


@dataclass
class EagerCandidate:
    """One ranked cancellation candidate with its estimator inputs."""

    task_key: Any
    op_name: str
    client_id: str
    kind: str
    age: float
    progress: float
    cancellable: bool
    gains: Dict[str, float] = field(default_factory=dict)
    score: Optional[float] = None
    selected: bool = False


def eager_candidates(assessment) -> List[EagerCandidate]:
    """The ranked candidates of ``assessment``, built and rounded now."""
    candidates = []
    for report in assessment.tasks:
        task = report.task
        gains = {
            resource.name: gain
            for resource, gain in sorted(
                report.gains.items(), key=lambda item: item[0].name
            )
        }
        score = assessment.score(report)
        candidates.append(
            EagerCandidate(
                task_key=task.key,
                op_name=task.op_name,
                client_id=task.client_id,
                kind=task.kind.value,
                age=round(task.age, 6),
                progress=round(report.progress, 6),
                cancellable=task.cancellable,
                gains={k: round(v, 9) for k, v in gains.items()},
                score=round(score, 9),
            )
        )
    candidates.sort(key=lambda c: (-(c.score or 0.0), str(c.task_key)))
    return candidates


def mark_selected(
    candidates: List[EagerCandidate], task_key: Any, score: float
) -> None:
    """A lever's pick: every candidate keyed ``task_key`` is selected
    and carries the policy's score."""
    for candidate in candidates:
        if candidate.task_key == task_key:
            candidate.selected = True
            candidate.score = score


def payload(candidates: List[EagerCandidate]) -> List[Dict[str, Any]]:
    """The candidates as an audit payload lists them: what ``asdict``
    gives for these flat records, without its per-field recursion."""
    return [dict(vars(candidate)) for candidate in candidates]
