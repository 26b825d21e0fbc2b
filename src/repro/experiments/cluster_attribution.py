"""Cluster experiment: local-only vs coordinated culprit attribution.

The scenario (see :mod:`repro.cluster`): a fleet of mixed-backend nodes
behind a load balancer serves a lightweight victim mix while two
recurring heavyweights compete for blame -- a *decoy* ``heavy_report``
(the biggest resource holder on whichever single node it lands on) and
the real culprit ``fanout_scan``, fanned out to every node, whose shards
are individually modest but whose fleet-wide damage no per-node view
sees whole.

Three control modes on the identical workload/seed:

========     ==========================================================
none         no cancellation anywhere (uncontrolled baseline)
local        per-node ATROPOS pipelines cancel on their own view; they
             repeatedly blame the decoy (wrong culprit)
coordinated  per-node pipelines run detect-only; the global coordinator
             aggregates candidate evidence across nodes, requires
             cross-node breadth, cancels the fanned-out scan fleet-wide
             and escalates to an LB quarantine
========     ==========================================================

Reported per mode: wrong-culprit rate (cancelled ops outside the
scenario's expected-culprit set), victim p99, goodput, and the
directive/quarantine counts.  The headline: coordinated attribution
drives the wrong-culprit rate to zero while beating the local pipelines
on victim p99 *and* goodput.

Fleet runs go through :func:`repro.campaign.execute` as the ``cluster``
campaign family (a custom :class:`~repro.experiments.harness.SimBuild`
runner like the ``dag`` family): they are cached, spread one fleet per
campaign worker, and ``repro regress`` snapshots and drift-checks the
fleet digest/scalars through the same content-addressed cache.
"""

from __future__ import annotations

from typing import Any, Dict

from ..campaign import RunSpec, execute
from ..cluster import demo_fleet, run_fleet
from ..cluster.spec import MODES
from ..sim.metrics import Summary
from .harness import SimBuild, register_sim, without_run_fields
from .tables import ExperimentResult, ExperimentTable


def _fleet_summary(payload: Dict[str, Any], duration: float,
                   warmup: float) -> Summary:
    """Condense a FleetResult payload into the campaign Summary schema.

    Latency fields are the fleet-wide victim statistics; throughput
    aggregates the per-node reports.  Counters the fleet does not track
    per-request (drops, timeouts) stay zero.
    """
    effective = max(duration - warmup, 1e-9)
    throughput = sum(
        report["throughput"] for report in payload["node_reports"]
    )
    p99 = payload["victim_p99"]
    nan = float("nan")
    completed = int(round(throughput * effective))
    return Summary(
        duration=effective,
        throughput=throughput,
        p50_latency=nan,
        p99_latency=nan if p99 is None else p99,
        mean_latency=nan,
        drop_rate=0.0,
        completed=completed,
        dropped=0,
        cancelled=int(payload["cancels_total"]),
        timed_out=0,
    )


@register_sim("cluster")
def _build_cluster(params: Dict[str, Any]) -> SimBuild:
    """The ``cluster`` family: one fleet run per spec.

    Params: ``fleet`` (a :class:`~repro.cluster.spec.FleetSpec` dict
    *without* the seed/duration/warmup keys -- those live on the RunSpec
    identity).  The fleet's node sims run serially inside the campaign
    worker for the same daemonized-fork reason as the ``dag`` family.
    """
    from ..cluster.spec import FleetSpec

    fleet = without_run_fields(params.get("fleet") or {})

    def runner(seed, duration, warmup, label=None):
        spec = FleetSpec.from_dict(
            dict(fleet, seed=seed, duration=duration, warmup=warmup)
        )
        result = run_fleet(spec, jobs=1)
        payload = result.to_dict()
        extras = {"fleet": payload, "fleet_digest": result.digest()}
        return _fleet_summary(payload, duration, warmup), extras

    return SimBuild(duration=16.0, warmup=4.0, runner=runner)


def cluster_spec(
    experiment: str,
    fleet: Dict[str, Any],
    seed: int,
    duration: float,
    warmup: float,
) -> RunSpec:
    """Build the campaign spec for one fleet run."""
    return RunSpec(
        experiment=experiment,
        family="cluster",
        params={"fleet": without_run_fields(fleet)},
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    n_nodes: int = 3,
    policy: str = "least-outstanding",
) -> ExperimentResult:
    """Run the three-mode cluster attribution comparison."""
    duration = 16.0 if quick else 30.0
    warmup = 4.0 if quick else 5.0
    fleet = demo_fleet(
        n_nodes=n_nodes,
        seed=seed,
        policy=policy,
        duration=duration,
        warmup=warmup,
    )
    specs = [
        cluster_spec(
            "cluster", fleet.with_mode(mode).to_dict(), seed, duration,
            warmup,
        )
        for mode in MODES
    ]
    outcomes = execute(specs)

    modes = ExperimentTable(
        "Cluster: local-only vs coordinated attribution",
        [
            "mode",
            "wrong_culprit_rate",
            "victim_p99_ms",
            "goodput_per_s",
            "cancels",
            "wrong_cancels",
            "directives",
            "quarantined",
        ],
    )
    verdicts = ExperimentTable(
        "Cluster: coordinator verdicts per mode",
        ["mode", "calm", "no_cross_node_culprit", "cancel", "quarantine"],
    )
    for mode, outcome in zip(MODES, outcomes):
        payload = outcome.extras["fleet"]
        p99 = payload["victim_p99"]
        modes.add_row(
            mode,
            payload["wrong_culprit_rate"],
            float("nan") if p99 is None else p99 * 1000.0,
            payload["goodput"],
            payload["cancels_total"],
            payload["wrong_cancels"],
            len(payload["directives"]),
            ",".join(payload["quarantined"]) or "-",
        )
        counts = {verdict: 0 for verdict in
                  ("calm", "no-cross-node-culprit", "cancel", "quarantine")}
        for decision in payload["decisions"]:
            counts[decision["verdict"]] += 1
        verdicts.add_row(
            mode,
            counts["calm"],
            counts["no-cross-node-culprit"],
            counts["cancel"],
            counts["quarantine"],
        )

    return ExperimentResult(
        experiment_id="cluster",
        description=(
            "Cross-node culprit attribution: per-node pipelines blame the "
            "single-node decoy; the coordinator's breadth test catches the "
            "fanned-out scan"
        ),
        tables=[modes, verdicts],
    )
