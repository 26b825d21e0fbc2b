"""Shared run harness: build app + controller + workload, run, summarize.

Every experiment, test, and example assembles runs through this module so
that results are comparable and deterministic per seed.

Beyond the imperative :func:`run_simulation` entry point, this module
hosts the **simulation-spec registry** used by the campaign runner
(:mod:`repro.campaign`): experiments register named *builders* that turn
a plain JSON-able parameter dict into the factories ``run_simulation``
needs.  Closures are not picklable, so worker processes resolve builders
by name through this registry instead of receiving factories directly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Optional

from ..core.controller import BaseController, NullController
from ..obs.tracer import ACTIVE
from ..sim.environment import Environment
from ..sim.metrics import MetricsCollector, RequestStatus, Summary
from ..sim.rng import Rng
from ..workloads.driver import Driver
from ..workloads.spec import Workload

#: Builds an application bound to (env, controller, rng).
AppFactory = Callable[[Environment, BaseController, Rng], object]
#: Builds a controller bound to env.
ControllerFactory = Callable[[Environment], BaseController]
#: Builds the workload for an app.
WorkloadFactory = Callable[[object, Rng], Workload]


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run.

    The run lives as long as its result: while the result is held, the
    run stays exactly as it ended; once it is dropped, the run's
    environment is closed (see :func:`run_simulation`).
    """

    summary: Summary
    collector: MetricsCollector
    controller: BaseController
    app: object
    driver: Driver
    duration: float
    #: Warm-up horizon used for the summary (0 = nothing trimmed).
    warmup: float = 0.0
    #: The :class:`repro.faults.FaultInjector` armed for this run, with
    #: its per-fault event log; None for clean (unfaulted) runs.
    faults: Optional[object] = None
    #: The :class:`repro.telemetry.RunTelemetry` recorded for this run;
    #: None unless a telemetry session was active (see
    #: :func:`repro.telemetry.telemetry_session`).
    telemetry: Optional[object] = None

    @property
    def throughput(self) -> float:
        return self.summary.throughput

    @property
    def p99_latency(self) -> float:
        return self.summary.p99_latency

    @property
    def drop_rate(self) -> float:
        return self.summary.drop_rate

    @cached_property
    def trimmed_collector(self) -> MetricsCollector:
        """The warm-up-trimmed view of :attr:`collector`.

        :attr:`summary` is computed from exactly this view; use it
        whenever derived metrics should be comparable to the summary.
        With ``warmup == 0`` it is :attr:`collector` itself.  Built once
        per result (a finished run's records no longer change):
        :func:`run_simulation` hands over the view it summarized.
        """
        return self.collector.trimmed(self.warmup)

    def timeline(self, window: float = 0.5):
        """Per-window (end_time, throughput, p99) series over the run.

        Useful for plotting how an overload forms and how quickly the
        controller recovers.  Uses the same warm-up-trimmed view as
        :attr:`summary`, so windows inside the warm-up report zero
        throughput; the time axis always covers [0, duration].
        """
        from ..sim.metrics import completion_windows, percentile

        return [
            (end, len(latencies) / window, percentile(latencies, 99))
            for end, latencies in completion_windows(
                self.trimmed_collector.records, window, self.duration
            )
        ]


def run_simulation(
    app_factory: AppFactory,
    workload_factory: WorkloadFactory,
    controller_factory: Optional[ControllerFactory] = None,
    duration: float = 10.0,
    seed: int = 0,
    warmup: float = 0.0,
    label: Optional[str] = None,
    fault_plan: Optional[object] = None,
) -> RunResult:
    """Run one simulation to completion and summarize.

    Args:
        app_factory: builds the application.
        workload_factory: builds the workload given (app, rng).
        controller_factory: builds the overload controller (default: the
            uncontrolled :class:`NullController`).
        duration: simulated seconds to run.
        seed: RNG seed (runs are deterministic per seed).
        warmup: completions finishing before this time are excluded from
            the summary (cold-cache transient).
        label: run label in the active trace and telemetry session
            (see :data:`repro.obs.ACTIVE`); defaults to
            ``run-{n}:seed={seed}``, ``n`` counting that session's runs.
        fault_plan: optional :class:`repro.faults.FaultPlan`; when given
            (and non-empty) a :class:`~repro.faults.FaultInjector` is
            armed against the assembled run and exposed as
            :attr:`RunResult.faults`.  Fault randomness draws from a
            dedicated ``faults`` fork of the run seed, so faulted runs
            are as deterministic as clean ones.

    When a tracer is active (``repro.obs.tracing``), this run becomes
    one Chrome-trace process in it: the kernel, resources, driver, and
    controller all emit through ``env.tracer``, a view the run detaches
    once it ends (``Tracer.end_run``).  Tracing never perturbs
    the simulation itself -- results are identical with or without it.
    The same holds for an active telemetry session
    (:func:`repro.telemetry.telemetry_session`): the scraper is a
    pull-based sim process that only *reads* model state, so scraped
    runs report identical results.

    Run lifetime: dropping the returned result closes the run's
    environment (:meth:`~repro.sim.environment.Environment.close`),
    which runs the ``finally`` blocks of the requests still in flight
    and frees the run by reference counting.  Read a run through its
    result: a part kept alone (``run_simulation(...).controller``)
    reads a closed run, whose in-flight work has unwound.
    """
    tracer, telemetry = ACTIVE.tracer, ACTIVE.telemetry
    # The null session accepts no runs.
    traced, scraped = tracer.accepting_runs, telemetry.accepting_runs
    if label is None and (traced or scraped):
        n = len((tracer if traced else telemetry).runs) + 1
        label = f"run-{n}:seed={seed}"
    env = Environment(tracer=tracer.open_run(label) if traced else None)
    rng = Rng(seed)
    controller = (
        controller_factory(env) if controller_factory else NullController(env)
    )
    app = app_factory(env, controller, rng)
    controller.bind(app)
    controller.start()
    collector = MetricsCollector()
    driver = Driver(env, app, controller, collector)
    workload = workload_factory(app, rng)
    driver.run_workload(workload)
    injector = None
    if fault_plan is not None and len(fault_plan) > 0:
        from ..faults import FaultInjector

        injector = FaultInjector(env, fault_plan, rng.fork("faults"))
        injector.arm(app=app, controller=controller, driver=driver)
    scraper = None
    if scraped:
        from ..telemetry.scrape import Scraper

        scraper = Scraper(
            env,
            telemetry.new_run(label),
            rules=telemetry.rules_for(controller),
            slo=controller.slo_latency,
            live_sink=telemetry.live_sink,
        )
        scraper.attach(
            app=app, driver=driver, controller=controller, faults=injector
        )
        scraper.start()
    env.run(until=duration)
    env.tracer.close_open_spans(env.now)
    if scraper is not None:
        scraper.finalize(env.now)
    env.tracer.end_run()

    effective = duration - warmup if warmup > 0.0 else duration
    trimmed = collector.trimmed(warmup)
    result = RunResult(
        summary=Summary.from_collector(trimmed, effective),
        collector=collector,
        controller=controller,
        app=app,
        driver=driver,
        duration=duration,
        warmup=warmup,
        faults=injector,
        telemetry=scraper.run if scraper is not None else None,
    )
    # Seed the cached view so extras and timelines reuse it.
    result.trimmed_collector = trimmed
    weakref.finalize(result, env.close).atexit = False
    return result


def normalize(value: float, baseline: float) -> float:
    """Safe normalization used across the figures."""
    if baseline == 0:
        return float("nan")
    return value / baseline


# ----------------------------------------------------------------------
# Simulation-spec registry (campaign support)
# ----------------------------------------------------------------------

@dataclass
class SimBuild:
    """The resolved ingredients of one :func:`run_simulation` call.

    Returned by registered spec builders; the campaign runner combines
    it with the RunSpec's seed/duration/warmup overrides.

    Families whose execution model is not a single
    :func:`run_simulation` environment (the microservice-DAG mesh runs
    a whole fleet of them) set ``runner`` instead of the factories: a
    callable ``runner(seed, duration, warmup, label) -> (Summary,
    extras)`` the campaign executes in place of the standard stack.
    Runner families do not support fault plans.
    """

    app_factory: Optional[AppFactory] = None
    workload_factory: Optional[WorkloadFactory] = None
    controller_factory: Optional[ControllerFactory] = None
    #: Defaults used when the RunSpec leaves duration/warmup unset.
    duration: float = 10.0
    warmup: float = 0.0
    #: Custom execution hook; see the class docstring.
    runner: Optional[Callable[..., Any]] = None


def without_run_fields(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """A runner family's scenario dict minus ``seed`` / ``duration`` /
    ``warmup``: those live on the RunSpec identity and reach the runner
    as arguments."""
    return {
        key: value
        for key, value in scenario.items()
        if key not in ("seed", "duration", "warmup")
    }


#: Family name -> builder(params: dict) -> SimBuild.
_SIM_BUILDERS: Dict[str, Callable[[Dict[str, Any]], SimBuild]] = {}


def register_sim(name: str):
    """Decorator registering a simulation builder under ``name``.

    Builders must accept one JSON-able parameter dict and return a
    :class:`SimBuild`.  Names are namespaced by convention
    (``fig2.point``, ``case``, ``fig13.late``); registering a name twice
    is an error except for idempotent re-registration of the same
    function (spawn-based workers re-import defining modules).
    """

    def wrap(builder: Callable[[Dict[str, Any]], SimBuild]):
        existing = _SIM_BUILDERS.get(name)
        if existing is not None and existing is not builder:
            raise ValueError(f"sim builder {name!r} already registered")
        _SIM_BUILDERS[name] = builder
        return builder

    return wrap


def resolve_sim(name: str) -> Callable[[Dict[str, Any]], SimBuild]:
    """Look up a registered builder; raises KeyError with known names."""
    try:
        return _SIM_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sim family {name!r}; known: {sorted(_SIM_BUILDERS)} "
            "(did the defining module get imported? see "
            "repro.campaign.load_all_families)"
        ) from None


def extract_extras(result: RunResult) -> Dict[str, Any]:
    """Condense the non-Summary metrics experiments consume into JSON.

    Everything any figure needs beyond the :class:`Summary` -- controller
    cancellation counters and per-operation completed-latency sums over
    the warm-up-trimmed records -- so cached campaign results can feed
    every consumer without keeping RunResult objects around.

    The stable observability surface ``repro regress`` snapshots is
    always present: ``series`` (per-window throughput/p99/goodput/
    cancel-rate arrays, :func:`repro.telemetry.series.window_series`
    over the same trimmed records as the summary) and -- when the
    controller keeps a decision log -- ``decision_mix`` /``audit_mix``
    (event counts per :class:`~repro.core.decision_log.DecisionKind`
    value and per audit verdict, keys sorted).
    """
    controller = result.controller
    cancellation = controller.cancellation
    log = cancellation.log if cancellation is not None else []
    extras: Dict[str, Any] = {
        "cancels_issued": controller.cancels_issued,
        "first_cancelled_op": log[0].op_name if log else None,
        "cancelled_ops": [e.op_name for e in log],
    }
    from ..telemetry.series import window_series

    extras["series"] = window_series(
        result.trimmed_collector.records,
        result.duration,
        slo=controller.slo_latency,
        cancel_times=[e.time for e in log],
    )
    decision_log = controller.decision_log
    if decision_log is not None:
        decision_mix: Dict[str, int] = {}
        for event in decision_log.events:
            kind = event.kind.value
            decision_mix[kind] = decision_mix.get(kind, 0) + 1
        audit_mix: Dict[str, int] = {}
        for audit in decision_log.audits:
            verdict = audit.verdict
            audit_mix[verdict] = audit_mix.get(verdict, 0) + 1
        extras["decision_mix"] = {
            k: decision_mix[k] for k in sorted(decision_mix)
        }
        extras["audit_mix"] = {
            k: audit_mix[k] for k in sorted(audit_mix)
        }
    extras["cancel_signals_dropped"] = (
        cancellation.dropped_signals if cancellation is not None else 0
    )
    adaptation = controller.adaptation
    if adaptation is not None and adaptation.adaptations:
        extras["adaptations"] = adaptation.adaptations
        extras["adapt_events"] = list(adaptation.adapt_events)
    ops: Dict[str, Any] = {}
    completed = RequestStatus.COMPLETED
    for record in result.trimmed_collector.records:
        if record.status is not completed:
            continue
        entry = ops.get(record.op_name)
        if entry is None:
            entry = ops[record.op_name] = {"n": 0, "latency_sum": 0.0}
        entry["n"] += 1
        entry["latency_sum"] += record.finish_time - record.arrival_time
    extras["ops"] = {name: ops[name] for name in sorted(ops)}
    if result.faults is not None:
        extras["fault_events"] = [
            event.to_dict() for event in result.faults.events
        ]
    return extras
