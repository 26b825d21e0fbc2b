"""Fixed vs adaptive thresholds across the reproduced overload cases.

Not a paper figure: an ablation of this repo's health-driven
:class:`~repro.core.adaptive.AdaptiveThresholdPolicy` (the first real
:class:`~repro.core.pipeline.AdaptationPolicy`).  For every case the
sweep runs the non-overloaded baseline, ATROPOS with fixed thresholds
(the paper's configuration), and ATROPOS with adaptive thresholds, and
reports:

* normalized p99 under fixed vs adaptive thresholds;
* cancellations issued by each, plus the number of threshold moves the
  adaptive policy made (``adaptations``; 0 means the health rules never
  fired and the run is identical to fixed).

Both variants share the per-case baseline run (and its cache entry), and
``fixed`` is fig10's ``Atropos`` column, entry and all.
"""

from __future__ import annotations

from typing import List, Optional

from ..cases import all_case_ids
from .grid import case_sweep, norm_p99
from .tables import ExperimentResult, ExperimentTable

#: Quick-mode subset: convoy, stream, and thrash cases where the
#: detector works hardest (and flapping/p99 rules have signal to react
#: to).
QUICK_CASES = ["c1", "c2", "c5", "c12"]

#: Column -> overlay.
VARIANTS = {"fixed": {}, "adaptive": {"adaptive_thresholds": True}}


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
) -> ExperimentResult:
    """Run the fixed-vs-adaptive threshold ablation."""
    if case_ids is None:
        case_ids = list(QUICK_CASES) if quick else all_case_ids()
    grid = case_sweep(
        "ablate-adaptive", case_ids, list(VARIANTS), seed,
        lambda name: {"system": "atropos", "overlay": VARIANTS[name]},
    )
    p99 = grid.table(
        "Adaptive thresholds: normalized p99 (fixed vs adaptive)", norm_p99
    )
    actions = ExperimentTable(
        "Adaptive thresholds: cancellations and threshold moves",
        ["case", "cancels_fixed", "cancels_adaptive", "adaptations"],
    )
    for cid in case_ids:
        adaptive = grid.cells[cid, "adaptive"]
        actions.add_row(
            cid,
            grid.cells[cid, "fixed"].cancels,
            adaptive.cancels,
            adaptive.adaptations,
        )
    return ExperimentResult(
        experiment_id="ablate-adaptive",
        description=(
            "Health-driven adaptive thresholds vs the paper's fixed "
            "configuration (closing the telemetry loop)"
        ),
        tables=[p99, actions],
    )
