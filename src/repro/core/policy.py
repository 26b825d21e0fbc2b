"""Cancellation policies (paper §3.5, Algorithm 1).

The primary policy is the multi-objective one: build the non-dominated
set of cancellable tasks by their per-resource gain vectors, then pick
the task with the highest contention-weighted scalarized gain.  Two
ablation baselines from §5.4 are also provided.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .estimator import OverloadAssessment, ResourceReport, TaskReport
from .task import CancellableTask
from .types import ResourceHandle


class CancellationPolicy:
    """Interface: pick the task to cancel from an assessment."""

    name = "abstract"

    #: Whether the estimator should compute future gains (True) or current
    #: usage (False) when preparing the assessment for this policy.
    uses_future_gain = True

    def select(
        self, assessment: OverloadAssessment
    ) -> Optional[Tuple[CancellableTask, float]]:
        """Returns (task, score) or None if no candidate exists."""
        raise NotImplementedError


def _vector_dominates(a: List[float], b: List[float]) -> bool:
    """Pareto dominance on gain vectors: >= everywhere, > somewhere."""
    strictly_better = False
    for ga, gb in zip(a, b):
        if ga < gb:
            return False
        if ga > gb:
            strictly_better = True
    return strictly_better


def _gain_vector(
    report: TaskReport, resources: List[ResourceHandle]
) -> List[float]:
    return [report.gain(resource) for resource in resources]


def dominates(a: TaskReport, b: TaskReport, resources: List[ResourceHandle]) -> bool:
    """True if ``a`` dominates ``b``: >= on every resource, > on one."""
    return _vector_dominates(
        _gain_vector(a, resources), _gain_vector(b, resources)
    )


def non_dominated_set(
    candidates: List[TaskReport], resources: List[ResourceHandle]
) -> List[TaskReport]:
    """Lines 2-10 of Algorithm 1: tasks not dominated by any other."""
    # One gain lookup per (task, resource); the pairwise pass below then
    # compares plain floats.
    vectors = [_gain_vector(report, resources) for report in candidates]
    return [
        report
        for report, vector in zip(candidates, vectors)
        if not any(
            other is not vector and _vector_dominates(other, vector)
            for other in vectors
        )
    ]


def _cancellable_candidates(
    assessment: OverloadAssessment, min_age: float
) -> List[TaskReport]:
    """Tasks eligible for cancellation (registered, alive, fairness)."""
    return [
        t
        for t in assessment.tasks
        if t.task.cancellable and t.task.age >= min_age
    ]


class MultiObjectivePolicy(CancellationPolicy):
    """Non-dominated set + contention-weighted scalarization (Alg 1)."""

    name = "multi-objective"
    uses_future_gain = True

    def __init__(self, min_age: float = 0.0) -> None:
        self.min_age = min_age

    def select(
        self, assessment: OverloadAssessment
    ) -> Optional[Tuple[CancellableTask, float]]:
        candidates = _cancellable_candidates(assessment, self.min_age)
        if not candidates:
            return None
        resources = [r.resource for r in assessment.resources]
        dominators = non_dominated_set(candidates, resources)
        best: Optional[Tuple[CancellableTask, float]] = None
        # Lines 12-20 of Algorithm 1: scalarize gains by contention level.
        for report in dominators:
            total_gain = assessment.score(report)
            if total_gain <= 0.0:
                continue
            if best is None or total_gain > best[1]:
                best = (report.task, total_gain)
        return best


class GreedyHeuristicPolicy(CancellationPolicy):
    """Fig 13 baseline 1: max gain on the single most contended resource."""

    name = "greedy-heuristic"
    uses_future_gain = True

    def __init__(self, min_age: float = 0.0) -> None:
        self.min_age = min_age

    def select(
        self, assessment: OverloadAssessment
    ) -> Optional[Tuple[CancellableTask, float]]:
        candidates = _cancellable_candidates(assessment, self.min_age)
        if not candidates:
            return None
        hottest = assessment.most_contended()
        if hottest is None:
            return None
        best: Optional[Tuple[CancellableTask, float]] = None
        for report in candidates:
            gain = report.gain(hottest.resource)
            if gain <= 0.0:
                continue
            if best is None or gain > best[1]:
                best = (report.task, gain)
        return best


class CurrentUsagePolicy(MultiObjectivePolicy):
    """Fig 13 baseline 2: multi-objective over *current* usage.

    Identical selection logic, but the estimator feeds it current resource
    usage instead of predicted future gain -- biasing it toward nearly
    finished long tasks (the failure mode §3.4 describes).
    """

    name = "current-usage"
    uses_future_gain = False


#: The valid ``AtroposConfig.policy`` ids -> policy class (Fig 13's
#: three settings of one ATROPOS).
POLICIES = {
    "multi_objective": MultiObjectivePolicy,
    "heuristic": GreedyHeuristicPolicy,
    "current_usage": CurrentUsagePolicy,
}
