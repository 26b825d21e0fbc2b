"""Figure 14: runtime overhead of ATROPOS tracing.

Five applications, four workloads (read / write, each with and without an
injected resource overload).  ATROPOS runs with *cancellation disabled*
(§5.5) so only tracing + decision overhead is measured, and results are
normalized against the uninstrumented run of the same workload.

Expected shape: under normal load the sampled-timestamp (coarse) mode
costs well under ~2% throughput; under overload the per-event (fine)
mode costs several percent -- small next to the benefit of cancellation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..apps.apache import Apache, ApacheConfig
from ..apps.base import Operation
from ..apps.elasticsearch import Elasticsearch, ElasticsearchConfig
from ..apps.mysql import MySQL, MySQLConfig, light_mix
from ..apps.postgres import PostgreSQL, PostgresConfig
from ..apps.solr import Solr, SolrConfig
from ..baselines import controller_factory
from ..campaign import RunSpec
from ..core.config import AtroposConfig
from ..workloads.spec import MixEntry, OpenLoopSource, ScheduledOp, Workload
from .grid import Sweep, norm_p99, norm_tput
from .harness import SimBuild, register_sim
from .tables import ExperimentResult, ExperimentTable

WORKLOADS = ["Read", "Write", "Read Overload", "Write Overload"]


def _mix(rng, read_ops, write_ops, read_heavy: bool):
    ops = read_ops if read_heavy else write_ops
    entries = []
    for name, params in ops:
        entries.append(
            MixEntry(
                factory=lambda n=name, p=params: Operation(n, dict(p)),
                weight=1.0,
            )
        )
    return entries


#: app -> (factory, read ops, write ops, overload trigger op, rate).
APP_SPECS: Dict[str, Tuple] = {
    "mysql": (
        lambda env, c, rng: MySQL(env, c, rng, config=MySQLConfig()),
        [("point_select", {})],
        [("row_update", {})],
        ("dump", {}),
        500.0,
    ),
    "postgres": (
        lambda env, c, rng: PostgreSQL(env, c, rng, config=PostgresConfig()),
        [("select", {})],
        [("update", {})],
        ("bulk_update", {"table": 0, "rows": 1.5e6}),
        400.0,
    ),
    "apache": (
        lambda env, c, rng: Apache(env, c, rng, config=ApacheConfig()),
        [("static", {})],
        [("static", {})],
        ("php_script", {"duration": 4.0}),
        400.0,
    ),
    "elasticsearch": (
        lambda env, c, rng: Elasticsearch(
            env, c, rng, config=ElasticsearchConfig()
        ),
        [("search", {})],
        [("indexing", {})],
        ("large_search", {}),
        400.0,
    ),
    "solr": (
        lambda env, c, rng: Solr(env, c, rng, config=SolrConfig()),
        [("query", {})],
        [("query", {})],
        ("boolean_query", {"duration": 4.0}),
        400.0,
    ),
}


def _workload(spec, read_heavy: bool, overload: bool):
    _, read_ops, write_ops, trigger, rate = spec

    def build(app, rng):
        sources = [
            OpenLoopSource(
                rate=rate, mix=_mix(rng, read_ops, write_ops, read_heavy)
            )
        ]
        if overload:
            name, params = trigger
            sources.append(
                ScheduledOp(
                    at=2.0,
                    factory=lambda: Operation(name, dict(params)),
                    client_id="culprit",
                )
            )
        return Workload(sources)

    return build


@register_sim("fig14.point")
def _build_point(params):
    spec = APP_SPECS[params["app"]]
    return SimBuild(
        spec[0],
        _workload(spec, params["read_heavy"], params["overload"]),
        # Cancellation disabled: tracing + decisions only.
        controller_factory=controller_factory(
            "atropos",
            AtroposConfig.slo_latency,
            {"cancellation_enabled": False},
        )
        if params["instrumented"]
        else None,
        warmup=2.0,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    apps: Optional[List[str]] = None,
    duration: float = 10.0,
) -> ExperimentResult:
    """Regenerate Figure 14's overhead bars."""
    apps = apps if apps is not None else list(APP_SPECS)
    # Each workload runs uninstrumented, then traced: the reference is
    # per cell, so both are columns and the tables pair them up.
    def spec_for(app_name, column):
        workload_name, instrumented = column
        return RunSpec(
            "fig14",
            "fig14.point",
            {
                "app": app_name,
                "read_heavy": workload_name.startswith("Read"),
                "overload": "Overload" in workload_name,
                "instrumented": instrumented,
            },
            seed=seed,
            duration=duration,
            warmup=2.0,
        )

    grid = Sweep(
        "app",
        apps,
        [(name, traced) for name in WORKLOADS for traced in (False, True)],
        spec_for,
    )

    def table(title, cell):
        out = ExperimentTable(title, ["app"] + WORKLOADS)
        for app_name in apps:
            out.add_row(
                app_name,
                *(
                    cell(
                        grid.cells[app_name, (name, True)],
                        grid.cells[app_name, (name, False)],
                    )
                    for name in WORKLOADS
                ),
            )
        return out

    return ExperimentResult(
        experiment_id="fig14",
        description="Tracing/decision overhead of Atropos",
        tables=[
            table(
                "Fig 14a: normalized throughput (Atropos / uninstrumented)",
                norm_tput,
            ),
            table(
                "Fig 14b: normalized p99 latency (Atropos / uninstrumented)",
                norm_p99,
            ),
        ],
    )
