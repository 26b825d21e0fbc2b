"""Multi-seed robustness sweep (beyond the paper).

The paper reports single measurements per case; a simulation can cheaply
quantify run-to-run variance instead.  This experiment repeats the
Figure 10 headline (Overload vs ATROPOS) across seeds and reports
min/mean/max of the normalized metrics per case.
"""

from __future__ import annotations

from typing import List, Optional

from .case_family import case_spec
from .grid import Sweep, mean, norm_p99, norm_tput
from .tables import ExperimentResult, ExperimentTable

DEFAULT_CASES = ["c1", "c2", "c5", "c8", "c13", "c15"]
DEFAULT_SEEDS = [0, 1, 2]


def run(
    quick: bool = True,
    case_ids: Optional[List[str]] = None,
    seeds: Optional[List[int]] = None,
) -> ExperimentResult:
    """Repeat the headline mitigation result across seeds."""
    case_ids = case_ids if case_ids is not None else list(DEFAULT_CASES)
    seeds = seeds if seeds is not None else list(DEFAULT_SEEDS)
    # Per seed: the non-overloaded baseline, then ATROPOS on the
    # overloaded case (the reference is per cell, so both are columns).
    def spec_for(cid, column):
        seed, overloaded = column
        if overloaded:
            return case_spec("robustness", cid, seed, system="atropos")
        return case_spec("robustness", cid, seed, include_culprit=False)

    grid = Sweep(
        "case",
        case_ids,
        [(seed, overloaded) for seed in seeds for overloaded in (False, True)],
        spec_for,
    )
    table = ExperimentTable(
        "Robustness: Atropos normalized metrics across seeds "
        f"(seeds={seeds})",
        [
            "case",
            "tput_min", "tput_mean", "tput_max",
            "p99_min", "p99_mean", "p99_max",
            "drop_max",
        ],
    )
    for cid in case_ids:
        pairs = [
            (grid.cells[cid, (seed, True)], grid.cells[cid, (seed, False)])
            for seed in seeds
        ]
        tputs = [norm_tput(*pair) for pair in pairs]
        p99s = [norm_p99(*pair) for pair in pairs]
        table.add_row(
            cid,
            min(tputs), mean(tputs), max(tputs),
            min(p99s), mean(p99s), max(p99s),
            max(atropos.drop_rate for atropos, _ in pairs),
        )
    return ExperimentResult(
        experiment_id="robustness",
        description="Multi-seed robustness of the headline mitigation",
        tables=[table],
    )
