"""DAG overload contrast: targeted cancel vs DAGOR shed vs Autothrottle.

The scenario (:func:`repro.workloads.dag.dag_storm`): a gateway fans
every request out to leaf services; a light open-loop ``browse`` class
is the victim population and a periodic ``analytics`` class lands a
heavy scan on every leaf -- the culprit lives on *different services*
than the victims' entry point, the regime DAGOR and Autothrottle were
built for.

Four controllers on the identical mesh/seed:

=============  =======================================================
none           uncontrolled baseline
atropos        per-service cancellation pipelines kill the in-flight
               scan within a detection window (targeted cancel)
dagor          per-service admission levels shed by compound priority
               with upstream feedback; an *admitted* scan keeps its
               resources until it finishes, and the level re-opens
               between storms
autothrottle   per-service worker throttles plus the global tower;
               throttling stretches everyone's service time and the
               scan holds its resources even longer
=============  =======================================================

The headline: targeted cancellation achieves strictly better victim
critical-path p99 *and* goodput than both shedding and throttling.

Runs go through :func:`repro.campaign.execute` as the ``dag`` family
(a custom :class:`~repro.experiments.harness.SimBuild` runner), so
they are cached, shard across campaign workers, and stay byte-
identical between serial and ``--jobs N`` executions.
"""

from __future__ import annotations

from typing import Any, Dict

from ..campaign import RunSpec, execute
from ..sim.metrics import Summary
from .harness import SimBuild, register_sim, without_run_fields
from .tables import ExperimentResult, ExperimentTable


def _dag_summary(result_dict: Dict[str, Any], duration: float,
                 warmup: float) -> Summary:
    """Condense a DagResult payload into the campaign Summary schema.

    Latency fields are the victim classes' critical-path statistics;
    the outcome counters aggregate every class.
    """
    effective = max(duration - warmup, 1e-9)
    totals = {"offered": 0, "completed": 0, "dropped": 0, "cancelled": 0,
              "timed_out": 0, "shed_upstream": 0}
    for counts in result_dict["classes"].values():
        for key in totals:
            totals[key] += counts.get(key, 0)
    p50 = result_dict["victim_p50"]
    p99 = result_dict["victim_p99"]
    mean = result_dict["victim_mean"]
    nan = float("nan")
    dropped = totals["dropped"] + totals["shed_upstream"]
    return Summary(
        duration=effective,
        throughput=totals["completed"] / effective,
        p50_latency=nan if p50 is None else p50,
        p99_latency=nan if p99 is None else p99,
        mean_latency=nan if mean is None else mean,
        drop_rate=dropped / max(totals["offered"], 1),
        completed=totals["completed"],
        dropped=dropped,
        cancelled=totals["cancelled"],
        timed_out=totals["timed_out"],
    )


@register_sim("dag")
def _build_dag(params: Dict[str, Any]) -> SimBuild:
    """The ``dag`` family: one mesh run per spec.

    Params: ``controller`` (one of
    :data:`repro.workloads.dag.DAG_CONTROLLERS`) and ``scenario`` (a
    :class:`~repro.workloads.dag.DagSpec` dict *without* the
    seed/duration/warmup keys -- those live on the RunSpec identity).
    """
    from ..cluster.mesh import run_dag
    from ..workloads.dag import DagSpec

    controller = params.get("controller", "atropos")
    scenario = without_run_fields(params.get("scenario") or {})

    def runner(seed, duration, warmup, label=None):
        spec = DagSpec.from_dict(
            dict(scenario, seed=seed, duration=duration, warmup=warmup)
        )
        # Mesh service-sharding would fork inside the (possibly
        # daemonized) campaign worker; parallelism across specs is the
        # campaign pool's job, so each mesh runs its services serially.
        result = run_dag(spec, controller=controller, jobs=1)
        payload = result.to_dict()
        extras = {"dag": payload, "dag_digest": result.digest()}
        return _dag_summary(payload, duration, warmup), extras

    return SimBuild(duration=24.0, warmup=4.0, runner=runner)


def dag_spec(
    experiment: str,
    controller: str,
    scenario: Dict[str, Any],
    seed: int,
    duration: float,
    warmup: float,
) -> RunSpec:
    """Build the campaign spec for one mesh run."""
    return RunSpec(
        experiment=experiment,
        family="dag",
        params={
            "controller": controller,
            "scenario": without_run_fields(scenario),
        },
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    n_leaves: int = 2,
) -> ExperimentResult:
    """Run the four-controller DAG storm contrast."""
    from ..workloads.dag import DAG_CONTROLLERS, dag_storm

    duration = 16.0 if quick else 24.0
    warmup = 4.0
    scenario = dag_storm(n_leaves=n_leaves).to_dict()
    specs = [
        dag_spec("dag", controller, scenario, seed, duration, warmup)
        for controller in DAG_CONTROLLERS
    ]
    outcomes = execute(specs)

    table = ExperimentTable(
        "DAG storm: cancel vs shed vs throttle",
        [
            "controller",
            "victim_p99_ms",
            "goodput_per_s",
            "victims_completed",
            "shed_upstream",
            "rejected",
            "cancelled_shards",
            "tower_moves",
        ],
    )
    for controller, outcome in zip(DAG_CONTROLLERS, outcomes):
        payload = outcome.extras["dag"]
        culprits = set(scenario["expected_culprits"])
        victims = {
            name: counts
            for name, counts in payload["classes"].items()
            if name not in culprits
        }
        p99 = payload["victim_p99"]
        table.add_row(
            controller,
            float("nan") if p99 is None else p99 * 1000.0,
            payload["goodput"],
            sum(c["completed"] for c in victims.values()),
            payload["shed_upstream"],
            sum(c["dropped"] for c in payload["classes"].values()),
            payload["cancelled_shards"],
            len(payload["tower_moves"]),
        )

    return ExperimentResult(
        experiment_id="dag",
        description=(
            "Microservice-DAG storm: targeted cancellation truncates the "
            "in-flight culprit scan; DAGOR only sheds *future* storms and "
            "Autothrottle squeezes victims alongside the culprit"
        ),
        tables=[table],
    )
