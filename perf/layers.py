"""Per-layer metrics derived from traced passes, plus the two extra
traced-run measurements (``regress`` and the observability pair).

Every function returns ``{metric name: value}`` for the names
``catalog.PER_LAYER`` lists under its layer; ``run.py`` refuses to report
when the union drifts from the catalog.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

import checks

ROOT = Path(__file__).resolve().parent.parent


def _per(total_s: float, count: float, scale: float = 1e6) -> float:
    return total_s / count * scale


def case_layers(passes, spans) -> Dict[str, float]:
    """apps.*, core.* and the simulated ratios from the two case passes."""
    unc, atr, calm = (passes[k] for k in
                      ("cases_uncontrolled", "cases_atropos", "calm"))
    out: Dict[str, float] = {}
    by_backend: Dict[str, List[Any]] = {}
    for run in unc.runs:
        by_backend.setdefault(run.data["backend"], []).append(run)
    for backend, runs in by_backend.items():
        out[f"apps.{backend}.us_per_request"] = _per(
            sum(r.wall_s for r in runs), sum(r.requests for r in runs))
    out["apps.build_ms"] = statistics.mean(
        spans.durations("build", under="cases_uncontrolled")) * 1e3
    out["core.overhead_x"] = (
        (atr.wall_s / atr.requests) / (unc.wall_s / unc.requests))
    out["core.events_traced"] = sum(
        r.data["events_traced"] for r in atr.runs)
    out["core.cancels_issued"] = sum(
        r.data["cancels_issued"] for r in atr.runs)
    delivered = [op for r in atr.runs for op in r.data["cancelled_ops"]]
    wrong = [
        op for r in atr.runs for op in r.data["cancelled_ops"]
        if op not in r.data["culprit_ops"]
    ]
    out["core.cancels_delivered"] = len(delivered)
    out["sim_wrong_culprit_rate.cases"] = (
        len(wrong) / len(delivered) if delivered else 0.0)
    calm_by_key = {r.key: r.data for r in calm.runs}
    out["sim_norm_p99.cases"] = statistics.mean(
        r.data["p99"] / calm_by_key[r.key]["p99"] for r in atr.runs)
    out["sim_norm_tput.cases"] = statistics.mean(
        r.data["throughput"] / calm_by_key[r.key]["throughput"]
        for r in atr.runs)
    return out


def fig9_layers(pass_, jobs: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for system in ("protego", "pbox", "darc", "parties"):
        runs = [r for r in pass_.runs if r.data["system"] == system]
        out[f"baselines.{system}.us_per_request"] = _per(
            sum(r.wall_s for r in runs), sum(r.requests for r in runs))
    walls = sorted(r.wall_s for r in pass_.runs)
    specs = len(pass_.runs)
    extra = pass_.extra
    out["campaign.sim_cpu_s"] = sum(walls)
    out["campaign.parallel_efficiency"] = (
        sum(walls) / (jobs * extra["cold_s"]))
    out["campaign.run_wall_p90_s"] = walls[
        min(specs - 1, math.ceil(0.9 * specs) - 1)]
    out["campaign.run_wall_max_s"] = walls[-1]
    out["campaign.warm_ms_per_spec"] = _per(extra["warm_s"], specs, 1e3)
    out["campaign.key_us_per_spec"] = _per(extra["keys_s"], specs)
    out["campaign.store_put_ms"] = _per(extra["put_s"], specs, 1e3)
    out["campaign.store_get_ms"] = _per(extra["get_s"], specs, 1e3)
    out["campaign.payload_kb"] = statistics.mean(
        r.data["payload_bytes"] for r in pass_.runs) / 1024.0
    out["sim_norm_p99.fig9"] = extra["norm_p99"]
    out["sim_norm_tput.fig9"] = extra["norm_tput"]
    return out


def cluster_layers(pass_) -> Dict[str, float]:
    runs = {r.key: r for r in pass_.runs}
    out: Dict[str, float] = {}
    for tier in ("fleet", "mesh"):
        serial, sharded = runs[f"{tier}.serial"], runs[f"{tier}.sharded"]
        out[f"cluster.{tier}.serial_s"] = serial.wall_s
        out[f"cluster.{tier}.sharded_s"] = sharded.wall_s
        out[f"cluster.{tier}.shard_speedup"] = serial.wall_s / sharded.wall_s
        out[f"cluster.{tier}.epoch_ms"] = _per(
            serial.wall_s, serial.data["epochs"], 1e3)
        out[f"cluster.{tier}.sim_victim_p99_ms"] = (
            serial.data["victim_p99"] * 1e3)
    out["cluster.fleet.us_per_event"] = _per(
        runs["fleet.serial"].wall_s, runs["fleet.serial"].events)
    out["sim_wrong_culprit_rate.fleet"] = (
        runs["fleet.serial"].data["wrong_culprit_rate"])
    return out


def regress_layers(args, ledger, scratch: str) -> Dict[str, float]:
    """`repro regress check` on the repo's own baseline, uncached."""
    from repro import campaign
    from repro.regress import RegressBaseline, compare, recapture

    baseline = RegressBaseline.read(str(ROOT / "REGRESS_BASELINE.json"))
    if args.smoke:
        baseline = RegressBaseline(
            baseline.name, baseline.cases[:1], baseline.meta)
    started = time.perf_counter()
    with campaign.settings(
        jobs=1, cache=True, cache_dir=os.path.join(scratch, "regress")
    ):
        current = recapture(baseline)
    compare_started = time.perf_counter()
    report = compare(baseline, current)
    done = time.perf_counter()
    ledger.attempted += len(baseline.cases)
    ledger.fail("regress", checks.regress_passes(report))
    return {
        "regress.check_s": done - started,
        "regress.compare_ms": (done - compare_started) * 1e3,
    }


def observability_layers(args, ledger, sim_s: float) -> Dict[str, float]:
    """c1 under ATROPOS with the tracer / the scraper on, against off:
    the median ratio of three off/on/on rounds."""
    from repro.baselines import controller_factory
    from repro.cases import get_case
    from repro.obs.tracer import Tracer, tracing
    from repro.telemetry import TelemetrySession, telemetry_session

    case = get_case("c1")
    factory = controller_factory(
        "atropos", case.slo_latency,
        atropos_overrides=dict(case.atropos_overrides),
    )

    def timed() -> float:
        started = time.perf_counter()
        case.run(factory, seed=args.seed, duration=sim_s)
        return time.perf_counter() - started

    traced, scraped = [], []
    for _ in range(3):
        off = timed()
        with tracing(Tracer()):
            traced.append(timed() / off)
        with telemetry_session(TelemetrySession()):
            scraped.append(timed() / off)
    ledger.attempted += 9
    return {
        "obs.tracer_overhead_x": statistics.median(traced),
        "telemetry.scrape_overhead_x": statistics.median(scraped),
    }
