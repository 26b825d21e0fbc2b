"""Figure 11: drop rate of ATROPOS vs Protego.

The paper reports drop rates for the synchronization/system/thread-pool
cases (c1, c3, c4, c6, c7, c8, c9, c12, c13, c14): ATROPOS stays below
0.01% while Protego averages ~25% because it must drop victims to bound
tail latency.
"""

from __future__ import annotations

from typing import List, Optional

from .grid import attr, case_sweep, column_means
from .tables import ExperimentResult

#: The cases shown in the paper's Figure 11.
FIG11_CASES = ["c1", "c3", "c4", "c6", "c7", "c8", "c9", "c12", "c13", "c14"]


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 11's drop-rate comparison."""
    case_ids = case_ids if case_ids is not None else list(FIG11_CASES)
    table = case_sweep(
        "fig11", case_ids, ["Protego", "Atropos"], seed,
        lambda name: {"system": name.lower()}, baseline=False,
    ).table("Fig 11: drop rate per case", attr("drop_rate"))
    summary = column_means("Fig 11 summary", "system", avg_drop_rate=table)
    return ExperimentResult(
        experiment_id="fig11",
        description="Drop rate of Atropos vs Protego",
        tables=[table, summary],
    )
