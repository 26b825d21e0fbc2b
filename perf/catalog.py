"""The benchmark's catalog: workloads, metrics, bounds, interactions.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; ``perf/tests/test_perf_smoke.py`` fails when the two drift.  The
file's schema has no room for a metric's layer, clock, source or the
end-to-end numbers it should move, so those live here (and, as tables,
in ``perf/README.md``).

Clock: every metric is either **host** time/memory (raw host seconds
or megabytes; noisy; medians and quartiles) or **simulated** (prefix
``sim_`` or ``exact=True``: deterministic per seed, must repeat
bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
#: Host seconds of untraced passes one run measures (``--seconds``).
RUN_SECONDS = 20

#: name -> one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    "cases_uncontrolled": (
        "8 overload cases on all 7 app backends with no controller: kernel, "
        "resources, apps, driver and metrics are the whole pass; the bypass "
        "workload for core"
    ),
    "cases_atropos": (
        "the same 8 cases, seeds and durations under the ATROPOS controller: "
        "about half the pass is core (tracing API, ledger, pipeline tick, "
        "cancellation)"
    ),
    "fig9_campaign": (
        "the paper's headline figure as a cold then warm jobs=2 campaign: "
        "many short runs, all five compared systems, spec hashing, result "
        "store, fork pool"
    ),
    "fleet_mesh": (
        "tiers 3-4: a 4-node coordinated fleet and the dag_storm mesh, each "
        "serial and sharded, so a win for one path that costs the other shows"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by.
    bound: float
    what: str


#: The three times are raw host seconds.  On the shared 2-core VM this
#: was sized on, the seconds of one commit spread 2-10 % across ten
#: back-to-back runs and their median drifts by up to 16 % between two
#: such sets minutes apart, so the time bounds are the widest the
#: contract allows; a tighter verdict needs alternating parent/change
#: pairs (compare.py reports ``unresolved`` when the spread hides it).
END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to ready-to-measure (import repro, load families, "
        "build cases/specs/cache keys), host seconds; median of 5 fresh "
        "interpreter launches",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "host seconds of one pass; median over passes",
    ),
    EndToEnd(
        "requests_per_s", "1/s", "higher", 0.25,
        "simulated requests reaching a terminal record per host second "
        "(exact count / pass seconds); median over passes",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15,
        "ru_maxrss of the measuring process plus its largest child",
    ),
]


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: Module under src/repro the number belongs to ("perf" = ours).
    layer: str
    #: Where the number comes from: "probe", "traced" (extra traced-run
    #: measurements), "own" (the traced pass of the named workload: the
    #: only values that depend on which workload a traced run names) or
    #: a workload name (that workload's traced pass).
    source: str
    #: Deterministic per seed; compared for equality by compare.py.
    exact: bool = False


def _probe(name: str, unit: str, layer: str, better: str = "lower") -> Layer:
    return Layer(name, unit, better, layer, "probe")


PER_LAYER: List[Layer] = [
    # -- sim ----------------------------------------------------------
    _probe("sim.skeleton_us_per_event", "us/event", "sim"),
    _probe("sim.timeout_us_per_event", "us/event", "sim"),
    _probe("sim.process_us_per_event", "us/event", "sim"),
    _probe("sim.condition_us_per_event", "us/event", "sim"),
    _probe("sim.kernel_overhead_x", "x", "sim"),
    Layer("sim.events", "count", "lower", "sim", "own", exact=True),
    Layer("sim.events_per_request", "events/request", "lower", "sim", "own",
          exact=True),
    Layer("sim.us_per_event", "us/event", "lower", "sim", "own"),
    # -- sim.resources ------------------------------------------------
    _probe("sim.resources.lock_excl_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.lock_shared_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.pool_hit_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.pool_evict_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.threadpool_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.docbuffer_us_per_op", "us/op", "sim.resources"),
    _probe("sim.resources.cpu_disk_us_per_op", "us/op", "sim.resources"),
    # -- workloads ----------------------------------------------------
    _probe("workloads.arrival_gen_us_per_request", "us/request", "workloads"),
    _probe("workloads.request_path_us_per_request", "us/request", "workloads"),
    _probe("workloads.live_source_us_per_request", "us/request", "workloads"),
    _probe("workloads.dag_arrivals_us_per_request", "us/request", "workloads"),
    # -- sim.metrics (normalised to 100k records) ---------------------
    _probe("sim.metrics.summary_ms", "ms", "sim.metrics"),
    _probe("sim.metrics.extras_ms", "ms", "sim.metrics"),
    # -- apps ---------------------------------------------------------
    *[
        Layer(f"apps.{backend}.us_per_request", "us/request", "lower", "apps",
              "cases_uncontrolled")
        for backend in ("mysql", "postgres", "apache", "elasticsearch",
                        "solr", "etcd", "mongodb")
    ],
    Layer("apps.build_ms", "ms", "lower", "apps", "cases_uncontrolled"),
    # -- core ---------------------------------------------------------
    _probe("core.trace_call_us", "us/op", "core"),
    _probe("core.task_lifecycle_us", "us/op", "core"),
    _probe("core.tick_idle_us", "us/op", "core"),
    _probe("core.tick_overload_us", "us/op", "core"),
    Layer("core.overhead_x", "x", "lower", "core", "cases_atropos"),
    Layer("core.events_traced", "count", "lower", "core", "cases_atropos",
          exact=True),
    Layer("core.cancels_issued", "count", "lower", "core", "cases_atropos",
          exact=True),
    Layer("core.cancels_delivered", "count", "lower", "core", "cases_atropos",
          exact=True),
    # -- baselines ----------------------------------------------------
    *[
        Layer(f"baselines.{system}.us_per_request", "us/request", "lower",
              "baselines", "fig9_campaign")
        for system in ("protego", "pbox", "darc", "parties")
    ],
    # -- campaign -----------------------------------------------------
    Layer("campaign.sim_cpu_s", "s", "lower", "campaign", "fig9_campaign"),
    Layer("campaign.parallel_efficiency", "share", "higher", "campaign",
          "fig9_campaign"),
    Layer("campaign.run_wall_p90_s", "s", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.run_wall_max_s", "s", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.warm_ms_per_spec", "ms", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.key_us_per_spec", "us/op", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.store_put_ms", "ms", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.store_get_ms", "ms", "lower", "campaign",
          "fig9_campaign"),
    Layer("campaign.payload_kb", "KB", "lower", "campaign", "fig9_campaign"),
    # -- cluster ------------------------------------------------------
    Layer("cluster.fleet.serial_s", "s", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.fleet.sharded_s", "s", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.fleet.shard_speedup", "x", "higher", "cluster",
          "fleet_mesh"),
    Layer("cluster.fleet.epoch_ms", "ms", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.fleet.us_per_event", "us/event", "lower", "cluster",
          "fleet_mesh"),
    Layer("cluster.mesh.serial_s", "s", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.mesh.sharded_s", "s", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.mesh.shard_speedup", "x", "higher", "cluster",
          "fleet_mesh"),
    Layer("cluster.mesh.epoch_ms", "ms", "lower", "cluster", "fleet_mesh"),
    Layer("cluster.fleet.sim_victim_p99_ms", "ms", "lower", "cluster",
          "fleet_mesh", exact=True),
    Layer("cluster.mesh.sim_victim_p99_ms", "ms", "lower", "cluster",
          "fleet_mesh", exact=True),
    # -- regress, obs, telemetry (hooks are off in every timed pass) ---
    Layer("regress.check_s", "s", "lower", "regress", "traced"),
    Layer("regress.compare_ms", "ms", "lower", "regress", "traced"),
    Layer("obs.tracer_overhead_x", "x", "lower", "obs", "traced"),
    Layer("telemetry.scrape_overhead_x", "x", "lower", "telemetry", "traced"),
    # -- the benchmark's own spans ------------------------------------
    Layer("perf.trace_overhead_x", "x", "lower", "perf", "own"),
    # -- simulated behaviour (the paper's ratios; no bound: they move
    #    with the seed far more than 2%, so they cannot be end-to-end
    #    metrics under a cross-seed spread rule) -----------------------
    Layer("sim_norm_p99.cases", "x", "lower", "core", "cases_atropos",
          exact=True),
    Layer("sim_norm_tput.cases", "x", "higher", "core", "cases_atropos",
          exact=True),
    Layer("sim_norm_p99.fig9", "x", "lower", "core", "fig9_campaign",
          exact=True),
    Layer("sim_norm_tput.fig9", "x", "higher", "core", "fig9_campaign",
          exact=True),
    Layer("sim_wrong_culprit_rate.cases", "share", "lower", "core",
          "cases_atropos", exact=True),
    Layer("sim_wrong_culprit_rate.fleet", "share", "lower", "cluster",
          "fleet_mesh", exact=True),
]

#: What the paper reports for the simulated ratios (printed beside them;
#: the repo holds no measurements from the real applications, so this is
#: the only reference and no error figure is given).
PAPER = {
    "sim_norm_p99.cases": 1.16,
    "sim_norm_p99.fig9": 1.16,
    "sim_norm_tput.cases": 0.96,
    "sim_norm_tput.fig9": 0.96,
}

#: layer-metric prefix -> (end-to-end metrics it should move, exercised
#: on, predicted no change on).  First matching prefix wins.
MOVES = [
    ("sim.events_per_request", (
        "wall_s at unchanged sim.us_per_event",
        "cases_*, fig9_campaign (live arrival generator: two events per "
        "arrival)",
        "fleet_mesh (already on batched arrivals)",
    )),
    ("sim.resources.", (
        "wall_s via the apps.<backend>.us_per_request whose contended "
        "resource it is (lock: c1/c14/c16; pool: c5; docbuffer: c18; "
        "threadpool: c9; cpu/disk: c12/c7)",
        "cases_uncontrolled",
        "backends that do not touch that primitive",
    )),
    ("sim.metrics.", (
        "wall_s",
        "fig9_campaign (many 12-14 sim-s runs: per-run fixed cost is a "
        "visible share)",
        "cases_* (one summary per 30 sim-s)",
    )),
    ("sim_", (
        "nothing on a behaviour-preserving change: must repeat exactly",
        "cases_atropos, fig9_campaign, fleet_mesh",
        "cases_uncontrolled",
    )),
    ("sim.", (
        "wall_s, requests_per_s",
        "all four, largest share on cases_uncontrolled",
        "campaign.warm_ms_per_spec",
    )),
    ("workloads.live_source", (
        "wall_s", "cases_*, fig9_campaign", "fleet_mesh",
    )),
    ("workloads.", (
        "wall_s", "fleet_mesh", "cases_*, fig9_campaign",
    )),
    ("apps.build_ms", (
        "wall_s", "fig9_campaign", "cases_*",
    )),
    ("apps.", (
        "wall_s, requests_per_s",
        "cases_uncontrolled, cases_atropos, fig9_campaign",
        "backends the change does not touch",
    )),
    ("core.", (
        "wall_s, requests_per_s",
        "cases_atropos (about half the pass), fig9_campaign (one system in "
        "six), fleet_mesh (per-node pipelines)",
        "cases_uncontrolled",
    )),
    ("baselines.", (
        "wall_s", "fig9_campaign (four systems in six)", "the other three",
    )),
    ("campaign.", (
        "wall_s, setup_s, peak_rss_mb", "fig9_campaign", "the other three",
    )),
    ("cluster.", (
        "wall_s, peak_rss_mb", "fleet_mesh", "the other three",
    )),
    ("regress.", (
        "no end-to-end metric: the user-visible cost of `repro regress "
        "check`", "traced run", "all timed passes",
    )),
    ("obs.", (
        "no end-to-end metric: the cost of turning tracing on",
        "traced run", "all timed passes (hooks are off)",
    )),
    ("telemetry.", (
        "no end-to-end metric: the cost of turning scraping on",
        "traced run", "all timed passes (hooks are off)",
    )),
    ("perf.", (
        "nothing: the cost of the benchmark's own spans",
        "traced run", "all timed passes",
    )),
]


def moves(name: str):
    """(should move, exercised on, predicted no change on) for a metric."""
    for prefix, row in MOVES:
        if name.startswith(prefix):
            return row
    raise KeyError(name)


def benchmark_json() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
