"""Figure 9: ATROPOS vs four state-of-the-art systems on all cases.

For every reproduced case, run ATROPOS, Protego, pBox, DARC, and PARTIES
and report throughput and 99th-percentile latency normalized against the
application's non-overloaded baseline.  The paper's headline: ATROPOS
averages 96% normalized throughput and 1.16x normalized p99; the others
land far behind on at least one metric.
"""

from __future__ import annotations

from typing import List, Optional

from ..cases import paper_case_ids
from .grid import case_sweep, column_means, norm_p99, norm_tput
from .tables import ExperimentResult

SYSTEMS = ["atropos", "protego", "pbox", "darc", "parties"]


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
    systems: Optional[List[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 9's per-case normalized tput/p99 bars."""
    # The paper's figure plots c1-c15; we include c16 as well.
    case_ids = case_ids if case_ids is not None else paper_case_ids()
    systems = systems if systems is not None else list(SYSTEMS)
    grid = case_sweep(
        "fig9", case_ids, systems, seed, lambda system: {"system": system}
    )
    tput = grid.table("Fig 9a: normalized throughput per case", norm_tput)
    p99 = grid.table("Fig 9b: normalized p99 latency per case", norm_p99)
    # Per-system averages (the numbers quoted in §5.2).
    avg = column_means(
        "Fig 9 summary: per-system averages",
        "system",
        avg_norm_throughput=tput,
        avg_norm_p99=p99,
    )
    return ExperimentResult(
        experiment_id="fig9",
        description="Comparison with state-of-the-art systems on all cases",
        tables=[tput, p99, avg],
    )
