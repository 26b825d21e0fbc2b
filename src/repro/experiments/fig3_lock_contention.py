"""Figure 3: performance impact of table lock contention.

The paper's setup (case study 2 of §2.1): a lightweight mixed workload,
three long scan queries launched at t = 5/10/15 s and one backup query at
t = 20 s.  "Lock Contention" runs scans + backup; "Drop Scan" removes the
scans; "Drop Backup" removes the backup.  Throughput collapses only when
*both* are present -- the convoy needs the interaction.

Our time axis is compressed (scans at 2/3/4 s, backup at 5 s, 14 s runs)
to match the simulation scale.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps.base import Operation
from ..apps.mysql import MySQL, MySQLConfig, light_mix
from ..campaign import RunSpec
from ..workloads.spec import OpenLoopSource, ScheduledOp, Workload
from .grid import Sweep, attr
from .harness import SimBuild, register_sim
from .tables import ExperimentResult

SCENARIOS = ["Lock Contention", "Drop Scan", "Drop Backup"]

QUICK_LOADS = [200.0, 500.0, 800.0, 1100.0, 1400.0]
FULL_LOADS = [100.0, 300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0,
              1700.0]

SCAN_TIMES = (2.0, 3.0, 4.0)
BACKUP_TIME = 5.0
DURATION = 14.0


def _mysql(env, controller, rng):
    return MySQL(env, controller, rng, config=MySQLConfig())


def _workload(rate: float, scans: bool, backup: bool):
    def build(app, rng):
        sources = [OpenLoopSource(rate=rate, mix=light_mix(rng))]
        if scans:
            for at in SCAN_TIMES:
                sources.append(
                    ScheduledOp(
                        at=at,
                        factory=lambda: Operation(
                            "scan", {"table": 0, "rows": 1.4e6}
                        ),
                        client_id="analytics",
                    )
                )
        if backup:
            sources.append(
                ScheduledOp(
                    at=BACKUP_TIME,
                    factory=lambda: Operation("backup", {}),
                    client_id="backup",
                )
            )
        return Workload(sources)

    return build


@register_sim("fig3.point")
def _build_point(params):
    """One lock-contention run, optionally under a controller (fig4)."""
    system = params.get("system")
    factory = None
    if system is not None:
        from ..baselines import controller_factory

        factory = controller_factory(system, params["slo_latency"])
    return SimBuild(
        _mysql,
        _workload(
            params["load"], scans=params["scans"], backup=params["backup"]
        ),
        controller_factory=factory,
        duration=DURATION,
        warmup=2.0,
    )


def point_spec(
    experiment: str,
    load: float,
    scans: bool,
    backup: bool,
    seed: int = 0,
    system: Optional[str] = None,
    slo_latency: Optional[float] = None,
) -> RunSpec:
    """A ``fig3.point`` RunSpec (shared by fig3 and fig4)."""
    params = {"load": load, "scans": scans, "backup": backup}
    if system is not None:
        params["system"] = system
        params["slo_latency"] = slo_latency
    return RunSpec(
        experiment,
        "fig3.point",
        params,
        seed=seed,
        duration=DURATION,
        warmup=2.0,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    loads: Optional[List[float]] = None,
) -> ExperimentResult:
    """Regenerate Figure 3's throughput and p99 series."""
    loads = loads if loads is not None else (QUICK_LOADS if quick else FULL_LOADS)
    # scenario -> (scans, backup)
    variants = {
        "Lock Contention": (True, True),
        "Drop Scan": (False, True),
        "Drop Backup": (True, False),
    }
    grid = Sweep(
        "offered_load",
        loads,
        SCENARIOS,
        lambda load, name: point_spec(
            "fig3", load, *variants[name], seed=seed
        ),
    )
    return ExperimentResult(
        experiment_id="fig3",
        description="Performance impact of table lock contention",
        tables=[
            grid.table(
                "Fig 3 (top): throughput (req/s) vs offered load",
                attr("throughput"),
            ),
            grid.table(
                "Fig 3 (bottom): p99 latency (s) vs offered load",
                attr("p99_latency"),
            ),
        ],
    )
