"""Figure 13: effectiveness of the multi-objective cancellation policy.

Ablation over the 16 cases: the full multi-objective policy versus (a)
the greedy heuristic (max gain on the single most contended resource)
and (b) multi-objective over *current* usage instead of predicted future
gain.  Throughput is normalized by the non-overloaded baseline.

Most reproduced cases have a single dominant culprit, so the three
policies coincide there (a reproduction finding: iterative cancellation
makes single-pick optimality second-order).  A synthetic *late-culprit*
scenario is therefore included, engineering the §3.4 situation directly:
a nearly finished report query pinning many pages next to a just-started
dump -- current-usage cancels the wrong one and pays a second
cancellation.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps.base import Operation
from ..apps.mysql import MySQL, MySQLConfig, light_mix
from ..baselines import controller_factory
from ..campaign import RunSpec, execute
from ..cases import paper_case_ids
from ..workloads.spec import OpenLoopSource, ScheduledOp, Workload
from .grid import case_sweep, column_means, norm_p99, norm_tput
from .harness import SimBuild, register_sim
from .tables import ExperimentResult, ExperimentTable

#: Display label -> policy id (``AtroposConfig.policy``).
POLICIES = {
    "Multi-Objective": "multi_objective",
    "Heuristic": "heuristic",
    "Current Usage": "current_usage",
}


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 13's per-case policy-ablation bars."""
    case_ids = case_ids if case_ids is not None else paper_case_ids()
    grid = case_sweep(
        "fig13", case_ids, list(POLICIES), seed,
        lambda name: {"overlay": {"policy": POLICIES[name]}},
    )
    tput = grid.table("Fig 13: normalized throughput per policy", norm_tput)
    p99 = grid.table("Fig 13 extras: normalized p99 per policy", norm_p99)
    summary = column_means(
        "Fig 13 summary: policy averages",
        "policy",
        avg_norm_throughput=tput,
        avg_norm_p99=p99,
    )
    late = late_culprit_scenario(seed=seed)
    return ExperimentResult(
        experiment_id="fig13",
        description="Comparison of cancellation policies",
        tables=[tput, p99, summary, late],
    )


def _late_culprit_workload(app, rng):
    """The §3.4 bait: an almost-done report query next to a fresh dump.

    The report query pins 800 pages in a pool with enough headroom to
    coexist with the hot set; the dump arrives when the report is ~85%
    done.  At detection time the report *holds* more pages, but the dump
    has nearly all of its demand ahead.  Current-usage cancels the report
    (wasted work; the dump keeps thrashing until a second cancellation);
    future-gain targets the dump directly.
    """
    return Workload(
        [
            OpenLoopSource(rate=300.0, mix=light_mix(rng)),
            ScheduledOp(
                at=0.5,
                factory=lambda: Operation(
                    "report_query", {"pages": 1200, "duration": 5.5}
                ),
                client_id="analytics",
            ),
            ScheduledOp(
                at=5.0,
                factory=lambda: Operation("dump", {}),
                client_id="reporting",
            ),
        ]
    )


@register_sim("fig13.late")
def _build_late(params):
    """The late-culprit scenario under one cancellation policy."""
    # Pool sized so hot set + report fit together: contention appears
    # only when the dump arrives.
    config = MySQLConfig(buffer_pool_pages=3200)

    return SimBuild(
        lambda env, ctl, rng: MySQL(env, ctl, rng, config=config),
        _late_culprit_workload,
        controller_factory=controller_factory(
            "atropos", 0.02, {"policy": params["policy"]}
        ),
        duration=12.0,
        warmup=2.0,
    )


def late_culprit_scenario(seed: int = 0) -> ExperimentTable:
    """Run the late-culprit scenario under each policy."""
    table = ExperimentTable(
        "Fig 13 extras: late-culprit scenario (nearly-done report vs fresh "
        "dump)",
        ["policy", "p99_latency", "cancels", "first_cancelled_op"],
    )
    outcomes = execute(
        [
            RunSpec("fig13", "fig13.late", {"policy": policy_id}, seed=seed)
            for policy_id in POLICIES.values()
        ]
    )
    for name, outcome in zip(POLICIES, outcomes):
        table.add_row(
            name,
            outcome.p99_latency,
            outcome.cancels,
            outcome.first_cancelled_op or "-",
        )
    return table
