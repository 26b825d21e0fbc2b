"""Campaign execution: cache lookup, worker pool, spec-order merge.

:func:`execute` is the single entry point experiments use.  Given an
ordered list of :class:`~repro.campaign.spec.RunSpec`, it

1. resolves the ambient :func:`settings` (CLI flags > context overlays >
   ``REPRO_JOBS`` / ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` env > defaults),
2. satisfies what it can from the content-addressed
   :class:`~repro.campaign.store.ResultStore`,
3. runs the remaining specs -- inline, or through ``jobs`` worker
   processes when ``jobs > 1`` (a worker that dies surfaces as
   :class:`CampaignWorkerError` naming its spec, never a hang) --
   deduplicating identical specs within the batch, and
4. returns outcomes **in spec order** (never completion order), so a
   parallel campaign is bit-identical to a serial one.

An observed run -- one under an active tracer (:func:`repro.obs.tracing`)
or telemetry session -- follows one rule: the settings resolve to one
job (:func:`current_settings`) and cache reads are skipped, so every run
actually happens in-process and lands in the trace or the scrape; its
payload equals the unobserved run's, so it still writes the cache.  A
traced run is marked by a ``campaign`` instant naming its family and
seed.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.harness import extract_extras, resolve_sim, run_simulation
from ..obs.tracer import ACTIVE
from ..workers import RemoteTraceback, WorkerFailure, Workers
from .spec import RunOutcome, RunSpec, load_all_families
from .store import ResultStore, default_cache_dir

#: Environment overrides (the nightly CI job sets REPRO_JOBS=2).
JOBS_ENV = "REPRO_JOBS"
CACHE_ENV = "REPRO_CACHE"

_FALSEY = {"0", "false", "no", "off"}


# ----------------------------------------------------------------------
# Ambient settings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResolvedSettings:
    """Fully-resolved execution settings for one campaign batch."""

    jobs: int = 1
    cache: bool = True
    cache_dir: Path = Path(".repro-cache")


_OVERLAYS: List[Dict[str, Any]] = []


@contextlib.contextmanager
def settings(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
    adaptive: Optional[bool] = None,
):
    """Scope campaign settings; None leaves the outer value in place::

        with campaign.settings(jobs=4, cache_dir=tmp):
            run_experiments(["fig2"])

    ``adaptive`` is the CLI ``--adaptive`` flag: not an execution
    setting but what ``case_spec`` reads (:func:`ambient`) to overlay
    health-driven adaptive thresholds on every spec that builds ATROPOS.
    """
    _OVERLAYS.append(
        {"jobs": jobs, "cache": cache, "cache_dir": cache_dir,
         "adaptive": adaptive}
    )
    try:
        yield
    finally:
        _OVERLAYS.pop()


def ambient(name: str, explicit: Any = None) -> Any:
    """``explicit``, else the innermost ``settings(name=...)`` in scope,
    else None."""
    if explicit is not None:
        return explicit
    for overlay in reversed(_OVERLAYS):
        if overlay[name] is not None:
            return overlay[name]
    return None


def current_settings(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> ResolvedSettings:
    """Resolve settings: explicit args > overlays > environment > defaults.

    An observed run executes in this process: while a tracer or a
    telemetry session is active (:data:`repro.obs.ACTIVE`) ``jobs`` is
    1, whatever was asked, so no run's events land in another process.
    """
    jobs = ambient("jobs", jobs)
    if ACTIVE.tracer.enabled or ACTIVE.telemetry.enabled:
        jobs = 1
    elif jobs is None:
        env = os.environ.get(JOBS_ENV)
        jobs = int(env) if env else 1
    cache = ambient("cache", cache)
    if cache is None:
        env = os.environ.get(CACHE_ENV)
        cache = env.strip().lower() not in _FALSEY if env else True
    cache_dir = ambient("cache_dir", cache_dir)
    if cache_dir is None:
        cache_dir = default_cache_dir()
    return ResolvedSettings(
        jobs=max(1, int(jobs)), cache=bool(cache), cache_dir=Path(cache_dir)
    )


# ----------------------------------------------------------------------
# Session statistics
# ----------------------------------------------------------------------

@dataclass
class CampaignStats:
    """Cumulative counters across execute() batches (one CLI command)."""

    runs: int = 0
    hits: int = 0
    misses: int = 0
    #: In-worker wall-clock spent building + simulating (fresh runs).
    walltime: float = 0.0
    #: Parent wall-clock spent inside execute().
    elapsed: float = 0.0
    jobs: int = 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.runs if self.runs else 0.0

    def format(self) -> str:
        return (
            f"[campaign] runs={self.runs} hits={self.hits} "
            f"misses={self.misses} jobs={self.jobs} "
            f"sim={self.walltime:.1f}s elapsed={self.elapsed:.1f}s"
        )


_SESSION = CampaignStats()


def session_stats() -> CampaignStats:
    """Counters accumulated since the last reset (CLI command start)."""
    return replace(_SESSION)


def reset_session_stats() -> None:
    global _SESSION
    _SESSION = CampaignStats()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _execute_one(spec: RunSpec, label: Optional[str] = None) -> Dict[str, Any]:
    """Build and run one spec in this process; returns its payload."""
    load_all_families()
    started = time.perf_counter()
    # Only a family that builds ATROPOS is handed an overlay, and only
    # its builder takes one.
    overlay = (spec.overlay,) if spec.overlay else ()
    build = resolve_sim(spec.family)(dict(spec.params), *overlay)
    duration = spec.duration if spec.duration is not None else build.duration
    warmup = spec.warmup if spec.warmup is not None else build.warmup
    fault_plan = None
    if spec.faults:
        from ..faults import FaultPlan

        fault_plan = FaultPlan.from_dict(spec.faults)
    if build.runner is not None:
        if fault_plan is not None:
            raise ValueError(
                f"family {spec.family!r} runs a custom runner and does "
                "not support fault plans"
            )
        summary, extras = build.runner(
            seed=spec.seed, duration=duration, warmup=warmup, label=label
        )
    else:
        result = run_simulation(
            build.app_factory,
            build.workload_factory,
            build.controller_factory,
            duration=duration,
            seed=spec.seed,
            warmup=warmup,
            label=label,
            fault_plan=fault_plan,
        )
        summary, extras = result.summary, extract_extras(result)
    payload = RunOutcome(
        spec=spec,
        summary=summary,
        extras=extras,
        walltime=time.perf_counter() - started,
    ).to_payload()
    payload["sim_duration"] = duration
    return payload


class CampaignWorkerError(RuntimeError):
    """A campaign worker process died without returning its payload
    (``exitcode``), or raised something that could not be sent back
    (``detail`` ends in the worker's formatted traceback)."""

    def __init__(
        self,
        spec: str,
        unfinished: List[str],
        exitcode: Optional[int],
        detail: str,
    ) -> None:
        self.spec = spec
        self.unfinished = unfinished
        self.exitcode = exitcode
        super().__init__(
            f"campaign worker failed running {spec} "
            f"(unfinished: {', '.join(unfinished)}): {detail}"
        )


def _spec_runner(index: int):  # pragma: no cover - runs in the child
    """Pool process: spec dict in, payload tagged with the worker out."""

    def run(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
        payload = _execute_one(RunSpec.from_dict(spec_dict))
        payload["worker"] = f"pid-{os.getpid()}"
        return payload

    return run


def _run_pool(
    specs: Sequence[RunSpec], jobs: int
) -> List[Dict[str, Any]]:
    """Run specs through ``jobs`` worker processes; results in input
    order.  An idle worker takes the next spec.  A worker that dies
    raises :class:`CampaignWorkerError`; what a run raised is re-raised
    here, the worker's traceback chained as its cause."""
    results: List[Any] = [None] * len(specs)
    todo = iter(range(len(specs)))
    busy: Dict[int, int] = {}  # worker -> index of the spec it is running

    with Workers(jobs, _spec_runner) as pool:

        def feed(worker: int) -> None:
            index = next(todo, None)
            if index is not None:
                pool.send(worker, specs[index].to_dict())
                busy[worker] = index

        for worker in range(jobs):
            feed(worker)
        while busy:
            for worker in pool.wait_any(list(busy)):
                index = busy.pop(worker)
                try:
                    results[index] = pool.recv(worker)
                except WorkerFailure as failure:
                    if failure.exc is not None:
                        raise failure.exc from RemoteTraceback(failure.text)
                    raise CampaignWorkerError(
                        specs[index].label(),
                        [s.label() for s, r in zip(specs, results) if r is None],
                        failure.exitcode,
                        str(failure),
                    ) from None
                feed(worker)
    return results


def execute(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> List[RunOutcome]:
    """Run a campaign of specs; outcomes returned in spec order.

    Identical specs within the batch execute once and fan out to every
    position.  An observed run (an active tracer or telemetry session)
    is serial (:func:`current_settings`) and skips cache reads -- a hit
    would yield an empty trace and no scrape windows -- but still writes
    the cache: observing a run leaves its payload unchanged, so an
    observed cold run warms the cache for a plain one.
    """
    specs = list(specs)
    if not specs:
        return []
    cfg = current_settings(jobs=jobs, cache=cache, cache_dir=cache_dir)
    load_all_families()
    tracer = ACTIVE.tracer
    observed = tracer.enabled or ACTIVE.telemetry.enabled
    store = ResultStore(cfg.cache_dir) if cfg.cache else None

    started = time.perf_counter()
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    pending: Dict[str, List[int]] = {}
    keys = [spec.cache_key() for spec in specs]
    for i, (spec, key) in enumerate(zip(specs, keys)):
        if store is not None and not observed:
            payload = store.get(key)
            if payload is not None:
                outcomes[i] = RunOutcome.from_payload(
                    spec, payload, cache_hit=True
                )
                continue
        pending.setdefault(key, []).append(i)

    miss_keys = list(pending)
    miss_specs = [specs[pending[key][0]] for key in miss_keys]
    if miss_specs:
        jobs = min(cfg.jobs, len(miss_specs))
        if jobs > 1:
            payloads = _run_pool(miss_specs, jobs)
        else:
            payloads = []
            for spec in miss_specs:
                payload = _execute_one(
                    spec,
                    label=spec.label() if observed else None,
                )
                if tracer.enabled:
                    _emit_run_instant(tracer, spec, payload)
                payloads.append(payload)
        for key, payload in zip(miss_keys, payloads):
            if store is not None:
                store.put(key, payload)
            for idx in pending[key]:
                outcomes[idx] = RunOutcome.from_payload(
                    specs[idx], payload, cache_hit=False
                )

    elapsed = time.perf_counter() - started
    # A "miss" is a simulation that actually executed; in-batch
    # duplicates fan out from one execution and count as hits.
    _SESSION.runs += len(specs)
    _SESSION.hits += len(specs) - len(miss_keys)
    _SESSION.misses += len(miss_keys)
    _SESSION.walltime += sum(p["walltime"] for p in (payloads if miss_specs else []))
    _SESSION.elapsed += elapsed
    _SESSION.jobs = cfg.jobs
    return outcomes  # type: ignore[return-value]


def _emit_run_instant(tracer, spec: RunSpec, payload: Dict[str, Any]) -> None:
    """Mark the end of each executed run in the active trace.

    Lands on a ``campaign`` track of the run that just executed, naming
    its family and seed.  Host wall clock stays out (it is in
    :class:`CampaignStats` on stderr), so a trace is byte-identical
    across runs.
    """
    tracer.instant(
        payload.get("sim_duration", 0.0),
        "campaign",
        "campaign.run",
        "campaign",
        family=spec.family,
        seed=spec.seed,
    )
