"""Figure 12: SLO maintenance under different thresholds.

The paper tests SLO goals of 10/20/40/60% tolerated latency increase on
six cases (c1, c2, c10, c11, c14, c15); ATROPOS maintains the goal,
cancelling tasks as needed (§5.3 reports an average increase of 10.2%
under the 20% goal, with c3/c12 as the exceptions).

The SLO is expressed relative to each case's non-overloaded mean latency
(``slo_latency = baseline_mean * (1 + goal)``), and the reported latency
increase covers the *SLO-bearing lightweight operations* -- the ops that
exist in the non-overloaded baseline -- so the culprit's own multi-second
runtime does not pollute the comparison.  Per-op latencies come from the
warm-up-trimmed records, consistent with every other summary metric.
"""

from __future__ import annotations

from typing import List, Optional

from ..campaign import execute
from .case_family import case_spec
from .grid import Sweep, attr
from .tables import ExperimentResult

FIG12_CASES = ["c1", "c2", "c10", "c11", "c14", "c15"]
SLO_GOALS = [0.10, 0.20, 0.40, 0.60]


def _light_mean(outcome, baseline) -> float:
    """Mean latency over the ops the non-overloaded baseline completed."""
    return outcome.mean_latency_over(baseline.completed_ops())


def _increase(outcome, baseline) -> float:
    return (
        _light_mean(outcome, baseline) / _light_mean(baseline, baseline) - 1.0
    )


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
    goals: Optional[List[float]] = None,
) -> ExperimentResult:
    """Regenerate Figure 12's latency-increase-vs-SLO-goal bars."""
    case_ids = case_ids if case_ids is not None else list(FIG12_CASES)
    goals = goals if goals is not None else list(SLO_GOALS)
    # Phase 1: per-case baselines define the light-op set and its mean.
    specs = [
        case_spec("fig12", cid, seed, include_culprit=False)
        for cid in case_ids
    ]
    baselines = dict(zip(case_ids, execute(specs)))

    # Phase 2: the goal sweep, with SLOs derived from phase 1.
    def spec_for(cid, goal):
        base_mean = _light_mean(baselines[cid], baselines[cid])
        return case_spec(
            "fig12",
            cid,
            seed,
            system="atropos",
            slo_latency=base_mean * (1.0 + goal),
            overlay={"slo_slack": 1.0},
        )

    grid = Sweep(
        "case",
        case_ids,
        goals,
        spec_for,
        label=lambda goal: f"goal_{int(goal * 100)}%",
    )
    grid.references = baselines
    increase = grid.table(
        "Fig 12: mean latency increase (light ops) vs SLO goal",
        _increase,
    )
    cancels = grid.table(
        "Fig 12 extras: cancellations issued vs SLO goal",
        attr("cancels"),
    )
    return ExperimentResult(
        experiment_id="fig12",
        description="SLO maintenance under different thresholds",
        tables=[increase, cancels],
    )
