"""Figure 10: ATROPOS mitigation effectiveness across the 16 cases.

For each case: normalized throughput and p99 of the uncontrolled
"Overload" run versus the ATROPOS run, normalized by the non-overloaded
baseline.  The paper's headline: ATROPOS averages 96% throughput and
1.16x p99 over the 16 cases.
"""

from __future__ import annotations

from typing import List, Optional

from ..cases import paper_case_ids
from .grid import case_sweep, mean, norm_p99, norm_tput
from .tables import ExperimentResult, ExperimentTable

#: Column label -> how the overloaded case is run.
VARIANTS = {"Overload": {}, "Atropos": {"system": "atropos"}}


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 10's Overload-vs-Atropos series."""
    case_ids = case_ids if case_ids is not None else paper_case_ids()
    grid = case_sweep(
        "fig10", case_ids, list(VARIANTS), seed, VARIANTS.get
    )
    tput = grid.table("Fig 10a: normalized throughput per case", norm_tput)
    p99 = grid.table("Fig 10b: normalized p99 latency per case", norm_p99)
    extras = ExperimentTable(
        "Fig 10 extras: Atropos drop rate and cancellations per case",
        ["case", "drop_rate", "cancels"],
    )
    for cid in case_ids:
        atropos = grid.cells[cid, "Atropos"]
        extras.add_row(cid, atropos.drop_rate, atropos.cancels)
    summary = ExperimentTable(
        "Fig 10 summary (paper: Atropos 96% tput, 1.16x p99, <0.01% drops)",
        ["metric", "value"],
    )
    summary.add_row("avg_norm_throughput", mean(tput.column("Atropos")))
    summary.add_row("avg_norm_p99", mean(p99.column("Atropos")))
    summary.add_row("avg_drop_rate", mean(extras.column("drop_rate")))
    return ExperimentResult(
        experiment_id="fig10",
        description="Mitigation effectiveness of Atropos across 16 cases",
        tables=[tput, p99, extras, summary],
    )
