"""Figure 2: impact of dump queries on buffer pool contention.

The paper's setup: MySQL with a 512 MB buffer pool over 2 GB of data,
lightweight point-select/row-update traffic, and heavy dump queries mixed
in at ratios {0, 1:100K, 1:10K}.  Even the tiny ratios collapse maximum
throughput and pull the latency knee to much lower loads.

Scaling note: our simulated runs are ~10 s at hundreds of requests/s
(the paper's are minutes at tens of kQPS), so the dump *ratios* are
scaled up (to 1:5000 and 1:1000) to deliver the same dump arrival rate
relative to dump duration; the reported series keep the paper's labels.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps.base import Operation
from ..apps.mysql import MySQL, MySQLConfig, light_mix
from ..campaign import RunSpec
from ..workloads.spec import MixEntry, OpenLoopSource, Workload
from .grid import Sweep, attr
from .harness import SimBuild, register_sim
from .tables import ExperimentResult

#: (series label from the paper, scaled dump weight in the mix).
SCENARIOS = [
    ("No dump", 0.0),
    ("0.001% dump", 1.0 / 5000.0),
    ("0.01% dump", 1.0 / 1000.0),
]

QUICK_LOADS = [200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0]
FULL_LOADS = [100.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0,
              1400.0, 1600.0, 1800.0, 2000.0]


def _mysql(env, controller, rng):
    return MySQL(env, controller, rng, config=MySQLConfig())


def _workload(rate: float, dump_weight: float):
    def build(app, rng):
        mix = light_mix(rng)
        if dump_weight > 0:
            total_light = sum(m.weight for m in mix)
            mix.append(
                MixEntry(
                    factory=lambda: Operation("dump", {}),
                    weight=total_light * dump_weight / (1.0 - dump_weight),
                )
            )
        return Workload([OpenLoopSource(rate=rate, mix=mix)])

    return build


@register_sim("fig2.point")
def _build_point(params):
    return SimBuild(
        _mysql, _workload(params["load"], params["dump_weight"])
    )


def run(
    quick: bool = True,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
    loads: Optional[List[float]] = None,
) -> ExperimentResult:
    """Regenerate Figure 2's throughput and p99 series."""
    loads = loads if loads is not None else (QUICK_LOADS if quick else FULL_LOADS)
    weights = dict(SCENARIOS)
    grid = Sweep(
        "offered_load",
        loads,
        list(weights),
        lambda load, label: RunSpec(
            "fig2",
            "fig2.point",
            {"load": load, "dump_weight": weights[label]},
            seed=seed,
            duration=duration,
            warmup=warmup,
        ),
    )
    return ExperimentResult(
        experiment_id="fig2",
        description="Impact of dump queries on buffer pool contention",
        tables=[
            grid.table(
                "Fig 2 (top): throughput (req/s) vs offered load",
                attr("throughput"),
            ),
            grid.table(
                "Fig 2 (bottom): p99 latency (s) vs offered load",
                attr("p99_latency"),
            ),
        ],
    )
