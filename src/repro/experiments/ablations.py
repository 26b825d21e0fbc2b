"""Ablation sweeps over ATROPOS's design knobs.

Not figures from the paper, but quantifications of trade-offs the paper
discusses in prose:

* **cancellation cooldown** (§5.3): the interval between consecutive
  cancellations trades aggressiveness against over-cancellation; the
  paper attributes its two SLO misses (c3, c12) to this interval.
* **detection period** (§3.3): how often the Breakwater-style monitor
  runs bounds the reaction time to a forming convoy.
* **re-execution** (§4): disabling the retry path shows what fairness
  costs (cancelled requests would simply be lost).
"""

from __future__ import annotations

from typing import List, Optional

from .grid import attr, case_sweep, norm_p99
from .tables import ExperimentResult

#: Stream cases where repeated cancellations are needed.
COOLDOWN_CASES = ["c2", "c12", "c15"]
COOLDOWNS = [0.05, 0.2, 0.5, 1.0]

DETECTION_CASES = ["c1", "c4", "c13"]
PERIODS = [0.05, 0.1, 0.25, 0.5]


def run_cooldown(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
    cooldowns: Optional[List[float]] = None,
) -> ExperimentResult:
    """Sweep the cancellation cooldown on culprit-stream cases."""
    case_ids = case_ids if case_ids is not None else list(COOLDOWN_CASES)
    cooldowns = cooldowns if cooldowns is not None else list(COOLDOWNS)
    grid = case_sweep(
        "ablation-cooldown", case_ids, cooldowns, seed,
        lambda value: {"overlay": {"cancel_cooldown": value}},
        label="cooldown_{}s".format,
    )
    return ExperimentResult(
        experiment_id="ablation-cooldown",
        description="Cancellation-cooldown trade-off (§5.3)",
        tables=[
            grid.table(
                "Ablation: normalized p99 vs cancellation cooldown", norm_p99
            ),
            grid.table(
                "Ablation: cancellations vs cancellation cooldown",
                attr("cancels"),
            ),
        ],
    )


def run_detection_period(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
    periods: Optional[List[float]] = None,
) -> ExperimentResult:
    """Sweep the detection period on single-culprit convoy cases."""
    case_ids = case_ids if case_ids is not None else list(DETECTION_CASES)
    periods = periods if periods is not None else list(PERIODS)
    grid = case_sweep(
        "ablation-detection", case_ids, periods, seed,
        lambda value: {"overlay": {"detection_period": value}},
        label="period_{}s".format,
    )
    return ExperimentResult(
        experiment_id="ablation-detection",
        description="Detection-period reaction-time trade-off (§3.3)",
        tables=[
            grid.table(
                "Ablation: normalized p99 vs detection period", norm_p99
            )
        ],
    )


#: Column -> overlay.  reexec_slo_multiple=0 exhausts the budget
#: immediately: every cancelled request is dropped.
REEXEC_VARIANTS = {
    "with_reexec": {},
    "without_reexec": {"reexec_slo_multiple": 0.0},
}


def run_no_reexecution(
    quick: bool = True, seed: int = 0, case_ids: Optional[List[str]] = None
) -> ExperimentResult:
    """Compare drop rates with and without the re-execution path."""
    case_ids = case_ids if case_ids is not None else ["c2", "c5", "c15"]
    grid = case_sweep(
        "ablation-reexec", case_ids, list(REEXEC_VARIANTS), seed,
        lambda name: {"system": "atropos", "overlay": REEXEC_VARIANTS[name]},
        baseline=False,
    )
    return ExperimentResult(
        experiment_id="ablation-reexec",
        description="Re-execution fairness mechanism (§4)",
        tables=[
            grid.table(
                "Ablation: drop rate with vs without re-execution",
                attr("drop_rate"),
            )
        ],
    )
