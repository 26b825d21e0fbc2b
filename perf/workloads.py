"""The four benchmark workloads, each measured from outside the layers.

A workload object is built once per process (that construction is what
``setup_s`` times) and then runs identical *passes*.  A pass returns a
:class:`Pass`: host seconds, the simulation runs it made (key, host
seconds, simulated requests, digest, per-run data), the runs that raised
or ran out of time, and workload-level extras.  From the host's side the load is a closed loop of one client at
a fixed input size: the next simulation starts when the previous returns.
Inside each simulation the arrivals are the cases' own open-loop Poisson
victims plus a periodic culprit.

Untraced passes call the public entry points users call
(``CaseSpec.run``, ``fig9_comparison.run``, ``run_fleet``, ``run_dag``).
Traced passes assemble the same runs from the public pieces
``run_simulation`` uses, with a span around each step.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import campaign
from repro.baselines import controller_factory
from repro.campaign import ResultStore
from repro.cases import get_case
from repro.cluster import Fleet, Mesh, demo_fleet, run_dag, run_fleet
from repro.core.controller import NullController
from repro.experiments import fig9_comparison
from repro.experiments.case_family import case_spec
from repro.experiments.harness import RunResult, extract_extras, resolve_sim
from repro.sim.environment import Environment
from repro.sim.metrics import MetricsCollector, Summary
from repro.sim.rng import Rng
from repro.workloads.dag import dag_storm
from repro.workloads.driver import Driver

from spans import Spans

#: One case per resource type, covering all seven app backends.
CASE_IDS = ("c1", "c5", "c7", "c9", "c12", "c14", "c16", "c18")

#: A simulation run slower than this (host seconds) counts as failed.
RUN_DEADLINE_S = 120


@dataclass(frozen=True)
class Size:
    """Input size of every workload at one scale."""

    #: Simulated seconds per case run (cases_* workloads).
    case_sim_s: float
    #: Cases swept by fig9_campaign (x 6 systems; each at the case's own
    #: 12-14 simulated seconds).
    fig9_cases: Tuple[str, ...]
    #: Simulated seconds of each fleet / mesh run.
    cluster_sim_s: float
    #: Whether the passes are long enough for the behavioural checks
    #: (controlled p99 <= uncontrolled p99, ...) to be meaningful.
    behaviour_checks: bool


FULL = Size(30.0, ("c1", "c5", "c7", "c9", "c12", "c16"), 40.0, True)
SMOKE = Size(3.0, ("c16",), 8.0, False)

Failure = Tuple[str, str]


@dataclass
class Run:
    """One simulation run (= one *operation* for failure accounting)."""

    key: str
    wall_s: float
    requests: int
    digest: str
    events: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    runs: List[Run]
    #: (run key, reason) of every run that raised or ran out of time; a
    #: pass with failures is counted but not timed.
    failures: List[Failure] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return sum(run.requests for run in self.runs)

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.failures)


@contextlib.contextmanager
def deadline(seconds: int = RUN_DEADLINE_S):
    """Raise TimeoutError in the main thread after ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"run exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def attempt(failures: List[Failure], keys: Sequence[str], call: Callable):
    """One operation under its deadline.  When it raises or runs out of
    time, every run in ``keys`` is recorded as failed and the result is
    ``None``: a failed run is counted, it does not end the benchmark."""
    try:
        with deadline():
            return call()
    except Exception as exc:
        traceback.print_exc()
        reason = f"{type(exc).__name__}: {exc}"
        failures.extend((key, reason) for key in keys)
        return None


def run_digest(summary: Dict[str, Any], extras: Dict[str, Any]) -> str:
    """sha256 over a run's Summary and extract_extras JSON."""
    blob = json.dumps({"summary": summary, "extras": extras}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def assemble_run(
    spans: Spans,
    app_factory: Callable,
    workload_factory: Callable,
    controller_factory_: Optional[Callable],
    duration: float,
    warmup: float,
    seed: int,
) -> Tuple[RunResult, Dict[str, Any]]:
    """``run_simulation`` + ``extract_extras`` from their public parts,
    one span per step: build -> sim.run -> summarize -> extras."""
    with spans.span("build"):
        env = Environment()
        rng = Rng(seed)
        controller = (
            controller_factory_(env) if controller_factory_
            else NullController(env)
        )
        app = app_factory(env, controller, rng)
        controller.bind(app)
        controller.start()
        collector = MetricsCollector()
        driver = Driver(env, app, controller, collector)
        driver.run_workload(workload_factory(app, rng))
    with spans.span("sim.run"):
        env.run(until=duration)
    with spans.span("summarize"):
        effective = duration - warmup if warmup > 0.0 else duration
        summary = Summary.from_collector(collector.trimmed(warmup), effective)
    with spans.span("extras"):
        result = RunResult(
            summary=summary, collector=collector, controller=controller,
            app=app, driver=driver, duration=duration, warmup=warmup,
        )
        extras = extract_extras(result)
    return result, extras


def _case_run(key: str, wall_s: float, case, result: RunResult,
              extras: Dict[str, Any]) -> Run:
    runtime = getattr(result.controller, "runtime", None)
    return Run(
        key=key,
        wall_s=wall_s,
        requests=len(result.collector.records),
        digest=run_digest(asdict(result.summary), extras),
        events=result.driver.env.events_scheduled,
        data={
            "backend": case.app_name,
            "p99": result.summary.p99_latency,
            "throughput": result.summary.throughput,
            "cancels_issued": extras["cancels_issued"],
            "cancelled_ops": extras["cancelled_ops"],
            "culprit_ops": sorted(case.culprit_ops),
            "events_traced": getattr(runtime, "events_traced", 0),
        },
    )


class CasesWorkload:
    """``cases_uncontrolled`` / ``cases_atropos``: eight cases, serial."""

    def __init__(self, seed: int, size: Size, controlled: bool,
                 include_culprit: bool = True) -> None:
        self.seed = seed
        self.sim_s = size.case_sim_s
        self.include_culprit = include_culprit
        self.cases = [get_case(cid) for cid in CASE_IDS]
        self.factories = [
            controller_factory(
                "atropos", case.slo_latency,
                atropos_overrides=dict(case.atropos_overrides),
            ) if controlled else None
            for case in self.cases
        ]

    def _timed(self, spans: Spans, case, factory):
        started = time.perf_counter()
        if spans.enabled:
            result, extras = assemble_run(
                spans, case.app_factory,
                lambda app, rng: case.workload_factory(
                    app, rng, self.include_culprit),
                factory, self.sim_s, case.warmup, self.seed,
            )
        else:
            result = case.run(
                factory, include_culprit=self.include_culprit,
                seed=self.seed, duration=self.sim_s,
            )
            extras = extract_extras(result)
        return time.perf_counter() - started, result, extras

    def run_pass(self, spans: Spans) -> Pass:
        runs, failures = [], []
        for case, factory in zip(self.cases, self.factories):
            with spans.span("run", run_id=case.case_id):
                done = attempt(failures, [case.case_id],
                               lambda: self._timed(spans, case, factory))
            if done:
                wall, result, extras = done
                runs.append(
                    _case_run(case.case_id, wall, case, result, extras))
        return Pass(sum(run.wall_s for run in runs), runs, failures)


class Fig9Workload:
    """``fig9_campaign``: the figure cold through a fresh cache, then warm."""

    def __init__(self, seed: int, size: Size, jobs: int, scratch: str) -> None:
        campaign.load_all_families()
        self.seed = seed
        self.jobs = jobs
        self.scratch = scratch
        self.case_ids = list(size.fig9_cases)
        self.systems = list(fig9_comparison.SYSTEMS)
        # The spec list fig9_comparison.run builds, for cache keys.
        self.specs = []
        self.labels = []
        for cid in self.case_ids:
            self.specs.append(
                case_spec("fig9", cid, seed, include_culprit=False))
            self.labels.append(f"{cid}:baseline")
            for system in self.systems:
                self.specs.append(case_spec("fig9", cid, seed, system=system))
                self.labels.append(f"{cid}:{system}")
        # Hashes the package source once (code_fingerprint), as every
        # campaign does before its first lookup.
        for spec in self.specs:
            spec.cache_key()

    def _figure(self):
        return fig9_comparison.run(
            quick=True, seed=self.seed, case_ids=self.case_ids)

    def run_pass(self, spans: Spans) -> Pass:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        failures: List[Failure] = []
        try:
            # The specs run in pool workers, which cannot be interrupted
            # one by one from here: the deadline bounds the campaign, and
            # a campaign that misses it or raises fails all its specs.
            done = attempt(failures, self.labels,
                           lambda: self._run_pass(spans, cache_dir))
            return done or Pass(0.0, [], failures)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _run_pass(self, spans: Spans, cache_dir: str) -> Pass:
        timer = time.perf_counter
        with spans.span("campaign", run_id="fig9"):
            with spans.span("keys"):
                started = timer()
                keys = [spec.cache_key() for spec in self.specs]
                keys_s = timer() - started
            with campaign.settings(
                jobs=self.jobs, cache=True, cache_dir=cache_dir
            ):
                with spans.span("execute.cold"):
                    started = timer()
                    cold = self._figure()
                    cold_s = timer() - started
                with spans.span("execute.warm"):
                    started = timer()
                    warm = self._figure()
                    warm_s = timer() - started
            store = ResultStore(cache_dir)
            with spans.span("store.get"):
                started = timer()
                payloads = [store.get(key) for key in keys]
                get_s = timer() - started
            copy = ResultStore(f"{cache_dir}/copy")
            with spans.span("store.put"):
                started = timer()
                for key, payload in zip(keys, payloads):
                    copy.put(key, payload)
                put_s = timer() - started
        runs = [
            Run(
                key=label,
                wall_s=payload["walltime"],
                requests=sum(
                    payload["summary"][status] for status in
                    ("completed", "dropped", "cancelled", "timed_out")
                ),
                digest=run_digest(payload["summary"], payload["extras"]),
                data={"system": label.split(":")[1],
                      "payload_bytes": len(json.dumps(payload))},
            )
            for label, payload in zip(self.labels, payloads)
        ]
        averages = cold.tables[2].row_map()
        return Pass(
            wall_s=cold_s + warm_s,
            runs=runs,
            extra={
                "cold_s": cold_s, "warm_s": warm_s, "keys_s": keys_s,
                "get_s": get_s, "put_s": put_s,
                "tables_cold": repr([t.rows for t in cold.tables]),
                "tables_warm": repr([t.rows for t in warm.tables]),
                "norm_tput": averages["atropos"][1],
                "norm_p99": averages["atropos"][2],
            },
        )

    def reference_runs(self, spans: Spans) -> Pass:
        """The last case's six specs run in this process, uncached, from
        the registered builder: the jobs=1 reference the campaign's
        payloads must equal, and the only fig9 runs whose event counts
        can be read."""
        build_case = resolve_sim("case")

        def timed(spec):
            build = build_case(dict(spec.params))
            started = time.perf_counter()
            result, extras = assemble_run(
                spans, build.app_factory, build.workload_factory,
                build.controller_factory, build.duration, build.warmup,
                spec.seed,
            )
            return time.perf_counter() - started, result, extras

        runs, failures = [], []
        for spec, label in list(zip(self.specs, self.labels))[-6:]:
            with spans.span("run", run_id=f"ref:{label}"):
                done = attempt(failures, [label], lambda: timed(spec))
            if done:
                wall, result, extras = done
                runs.append(Run(
                    key=label,
                    wall_s=wall,
                    requests=len(result.collector.records),
                    digest=run_digest(asdict(result.summary), extras),
                    events=result.driver.env.events_scheduled,
                ))
        return Pass(sum(run.wall_s for run in runs), runs, failures)


def _fleet_requests(result) -> int:
    return sum(
        report["completed"] + report["cancelled"] + report["dropped"]
        for report in result.node_reports
    )


def _mesh_requests(result) -> int:
    return sum(
        counts["offered"] - counts["unfinished"]
        for counts in result.classes.values()
    )


class FleetMeshWorkload:
    """``fleet_mesh``: demo fleet and dag_storm mesh, serial and sharded."""

    def __init__(self, seed: int, size: Size, jobs: int) -> None:
        self.jobs = jobs
        self.fleet_spec = demo_fleet(
            n_nodes=4, duration=size.cluster_sim_s, warmup=2.0,
            mode="coordinated", seed=seed,
        )
        self.dag_spec = dag_storm(duration=size.cluster_sim_s, seed=seed)

    def run_pass(self, spans: Spans) -> Pass:
        tiers = [
            ("fleet", lambda: Fleet(self.fleet_spec),
             lambda jobs: run_fleet(self.fleet_spec, jobs=jobs),
             _fleet_requests),
            ("mesh", lambda: Mesh(self.dag_spec, "atropos"),
             lambda jobs: run_dag(self.dag_spec, "atropos", jobs=jobs),
             _mesh_requests),
        ]

        def serial(build, run):
            started = time.perf_counter()
            events = None
            if spans.enabled:
                # What run(jobs=1) does, split so the node environments
                # stay reachable for their event counts.
                with spans.span("build"):
                    built = build()
                with spans.span("run.serial"):
                    result = built.run()
                events = sum(
                    node.env.events_scheduled for node in built.nodes)
            else:
                result = run(1)
            return time.perf_counter() - started, result, events

        def sharded(build, run):
            with spans.span("run.sharded"):
                started = time.perf_counter()
                result = run(self.jobs)
                return time.perf_counter() - started, result, None

        runs, failures = [], []
        for tier, build, run, count_requests in tiers:
            with spans.span(tier, run_id=tier):
                for mode, timed in (("serial", serial), ("sharded", sharded)):
                    key = f"{tier}.{mode}"
                    done = attempt(failures, [key],
                                   lambda: timed(build, run))
                    if not done:
                        continue
                    wall, result, events = done
                    runs.append(Run(
                        key=key,
                        wall_s=wall,
                        requests=count_requests(result),
                        digest=result.digest(),
                        events=events,
                        data={
                            "epochs": result.epochs,
                            "victim_p99": result.victim_p99,
                            "wrong_culprit_rate": getattr(
                                result, "wrong_culprit_rate", None),
                        },
                    ))
        return Pass(sum(run.wall_s for run in runs), runs, failures)


def build(name: str, seed: int, size: Size, jobs: int, scratch: str):
    """Construct the named workload (the work ``setup_s`` times)."""
    if name == "cases_uncontrolled":
        return CasesWorkload(seed, size, controlled=False)
    if name == "cases_atropos":
        return CasesWorkload(seed, size, controlled=True)
    if name == "fig9_campaign":
        return Fig9Workload(seed, size, jobs, scratch)
    if name == "fleet_mesh":
        return FleetMeshWorkload(seed, size, jobs)
    raise KeyError(name)
