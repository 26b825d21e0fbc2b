"""Figure 4: Protego vs pBox vs ATROPOS on the table-lock overload case.

The paper evaluates the three systems on case study 2 (§2.1) across a
load sweep and reports throughput and p99 normalized by the
non-overloaded performance at the same load, plus the drop rate.
Protego bounds latency but drops a lot; pBox cannot release the held
locks; ATROPOS cancels the culprit and keeps all three metrics good.
"""

from __future__ import annotations

from typing import List, Optional

from .fig3_lock_contention import point_spec
from .grid import Sweep, attr, norm_p99, norm_tput
from .tables import ExperimentResult

SYSTEMS = ["atropos", "protego", "pbox"]

QUICK_LOADS = [300.0, 600.0, 900.0, 1200.0]
FULL_LOADS = [200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0]

SLO_LATENCY = 0.05


def run(
    quick: bool = True,
    seed: int = 0,
    loads: Optional[List[float]] = None,
) -> ExperimentResult:
    """Regenerate Figure 4's normalized tput / p99 / drop-rate series."""
    loads = loads if loads is not None else (QUICK_LOADS if quick else FULL_LOADS)
    # Each system on the full scans+backup convoy, against the
    # non-overloaded run at the same load.
    grid = Sweep(
        "offered_load",
        loads,
        SYSTEMS,
        lambda load, system: point_spec(
            "fig4",
            load,
            True,
            True,
            seed=seed,
            system=system,
            slo_latency=SLO_LATENCY,
        ),
        reference=lambda load: point_spec(
            "fig4", load, False, False, seed=seed
        ),
    )
    return ExperimentResult(
        experiment_id="fig4",
        description=(
            "Protego vs pBox vs Atropos on the table-lock overload case"
        ),
        tables=[
            grid.table(
                "Fig 4a: normalized throughput vs offered load",
                norm_tput,
            ),
            grid.table(
                "Fig 4b: normalized p99 latency vs offered load",
                norm_p99,
            ),
            grid.table(
                "Fig 4c: drop rate vs offered load",
                attr("drop_rate"),
            ),
        ],
    )
