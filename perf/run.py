#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer numbers.

    python3 perf/run.py                       # all four workloads
    python3 perf/run.py --workload cases_atropos --seed 3
    python3 perf/run.py --trace               # per-layer metrics (traced run)
    python3 perf/run.py --smoke               # both kinds of run, tiny, < 60 s
    python3 perf/run.py --compare A.json B.json

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
without ``--trace``, the per-layer metrics with it (see BENCHMARK.json).
Every run also writes the full result (quartiles, pass counts, host
facts, failures) under ``--out-dir``, and a traced run a Chrome trace.
Times are raw host seconds.  One *operation* is one simulation run; a
run that raises, exceeds its 120 s deadline or breaks an output check is
counted in ``failed`` and the result is still written.

The process the user starts only orchestrates: it launches fresh
interpreters with ``PYTHONHASHSEED=0`` -- five that set up and exit
(``setup_s``), one that measures -- so nothing it imported warms them.
All caches and outputs live under ``--out-dir`` (default ``perf/out/``,
git-ignored); the repo's ``.repro-cache/`` is never read or written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))

import catalog  # noqa: E402

SETUP_LAUNCHES = 5
MIN_PASSES = 3


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(median, q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def host_metric(values: List[float], unit: str) -> Dict[str, Any]:
    median, q1, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_facts() -> Dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
    }


def child_env() -> Dict[str, str]:
    """Environment of every interpreter the benchmark launches."""
    env = {
        key: value for key, value in os.environ.items()
        # Ambient campaign settings must not leak into a measurement.
        if key not in ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR")
    }
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KB


# ----------------------------------------------------------------------
# Worker: one workload, in this (fresh) interpreter
# ----------------------------------------------------------------------

class Ledger:
    """Attempted/failed accounting: one operation = one simulation run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = set()
        self.reasons: List[str] = []

    def took(self, where: str, pass_) -> None:
        """Count a pass's runs, and as failed those that raised or ran
        out of time."""
        self.attempted += pass_.attempted
        self.fail(where, pass_.failures)

    def fail(self, where: str, failures) -> None:
        for key, reason in failures:
            self.failed.add((where, key))
            self.reasons.append(f"{where}: {key}: {reason}")


def size_for(args):
    import workloads

    return workloads.SMOKE if args.smoke else workloads.FULL


def measure_passes(args, ledger: Ledger, scratch: str) -> Dict[str, Any]:
    """``--trace 0``: untraced passes for ``--seconds``; end-to-end."""
    import checks
    import workloads
    from spans import Spans

    size = size_for(args)
    off = Spans(enabled=False)
    workload = workloads.build(args.workload, args.seed, size, args.jobs,
                               scratch)
    passes = []
    started = time.perf_counter()
    min_passes = 1 if args.smoke else MIN_PASSES
    while True:
        gc.collect()
        passes.append(workload.run_pass(off))
        ledger.took(f"pass {len(passes)}", passes[-1])
        elapsed = time.perf_counter() - started
        typical = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break

    for index, later in enumerate(passes[1:], start=2):
        ledger.fail(f"pass {index}", checks.same_digests(passes[0], later))
    for index, pass_ in enumerate(passes, start=1):
        if args.workload == "fleet_mesh":
            ledger.fail(f"pass {index}", checks.serial_equals_sharded(pass_))
        if args.workload == "fig9_campaign":
            ledger.fail(f"pass {index}", checks.warm_equals_cold(pass_))
    if args.workload == "fig9_campaign":
        reference = workload.reference_runs(off)
        ledger.took("reference", reference)
        ledger.fail("reference",
                    checks.matches_reference(passes[0], reference.runs))
    if args.workload == "cases_atropos" and size.behaviour_checks:
        uncontrolled = workloads.CasesWorkload(
            args.seed, size, controlled=False).run_pass(off)
        ledger.took("uncontrolled", uncontrolled)
        ledger.fail("pass 1",
                    checks.controller_helps(passes[0], uncontrolled))

    # A pass that lost a run is counted above, not timed -- unless none
    # is whole, when the (already incorrect) result still needs numbers.
    timed = [p for p in passes if not p.failures] or passes
    return {
        "wall_s": host_metric([p.wall_s for p in timed], "s"),
        "requests_per_s": host_metric(
            [p.requests / max(p.wall_s, 1e-9) for p in timed], "1/s"),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "n": 1},
    }


def measure_layers(args, ledger: Ledger, scratch: str,
                   trace_path: str) -> Dict[str, Any]:
    """``--trace 1``: every per-layer metric.

    All four workloads run one traced pass, because a run must report
    every layer whichever workload it names; the named one also runs an
    untraced pass first (``perf.trace_overhead_x``, ``sim.events*``).
    """
    import checks
    import layers
    import probes
    import workloads
    from spans import Spans

    spans = Spans(enabled=True)
    off = Spans(enabled=False)
    values: Dict[str, float] = {}
    passes = {}
    built = {}
    try:
        size = size_for(args)
        for name in catalog.WORKLOADS:
            workload = built[name] = workloads.build(
                name, args.seed, size, args.jobs, scratch)
            if name == args.workload:
                gc.collect()
                untraced = workload.run_pass(off)
                ledger.took("untraced pass", untraced)
            gc.collect()
            with spans.span(name, run_id=name):
                passes[name] = workload.run_pass(spans)
            ledger.took(f"traced {name}", passes[name])
        own = passes[args.workload]
        # The hand-assembled traced runs must equal the public-path runs.
        ledger.fail("traced pass", checks.same_digests(untraced, own))
        ledger.fail("traced pass",
                    checks.serial_equals_sharded(passes["fleet_mesh"]))
        ledger.fail("traced pass",
                    checks.warm_equals_cold(passes["fig9_campaign"]))
        with spans.span("fig9_reference", run_id="fig9_reference"):
            reference = built["fig9_campaign"].reference_runs(spans)
        ledger.took("reference", reference)
        ledger.fail("reference", checks.matches_reference(
            passes["fig9_campaign"], reference.runs))
        # No culprit, no controller: what the paper normalises against.
        passes["calm"] = workloads.CasesWorkload(
            args.seed, size, controlled=False, include_culprit=False,
        ).run_pass(off)
        ledger.took("calm", passes["calm"])

        values.update(layers.case_layers(passes, spans))
        values.update(layers.fig9_layers(passes["fig9_campaign"], args.jobs))
        values.update(layers.cluster_layers(passes["fleet_mesh"]))
        counted = (
            reference.runs if args.workload == "fig9_campaign"
            else [r for r in own.runs if r.events is not None]
        )
        events = sum(r.events for r in counted)
        values["sim.events"] = events
        values["sim.events_per_request"] = (
            events / sum(r.requests for r in counted))
        values["sim.us_per_event"] = (
            sum(r.wall_s for r in counted) / events * 1e6)
        values["perf.trace_overhead_x"] = own.wall_s / untraced.wall_s
        values.update(probes.run_probes(0.02 if args.smoke else 0.1))
        values.update(layers.regress_layers(args, ledger, scratch))
        values.update(layers.observability_layers(
            args, ledger, size.case_sim_s))
    finally:
        spans.write_chrome_trace(trace_path)

    coverage = spans.coverage(
        "run", ("build", "sim.run", "summarize", "extras"))
    top = sorted(spans.self_times().items(), key=lambda kv: -kv[1])[:5]
    print(f"# spans: {len(spans.records)} recorded, trace -> {trace_path}\n"
          f"# build+sim.run+summarize+extras cover >= {coverage:.1%} of each "
          "traced case run\n# largest self times: "
          + ", ".join(f"{name} {seconds:.2f} s" for name, seconds in top),
          file=sys.stderr)

    by_name = {m.name: m for m in catalog.PER_LAYER}
    if set(values) != set(by_name):
        raise RuntimeError(
            "per-layer metrics drifted from the catalog: missing "
            f"{sorted(set(by_name) - set(values))}, extra "
            f"{sorted(set(values) - set(by_name))}")
    return {
        m.name: {"value": values[m.name], "unit": m.unit, "exact": m.exact}
        for m in catalog.PER_LAYER
    }


def scratch_dir(args):
    """A temp dir under ``--out-dir``, removed on exit (also on failure)."""
    os.makedirs(args.out_dir, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=args.out_dir)


def worker(args) -> int:
    """Measure one workload in this interpreter; print one JSON line."""
    ledger = Ledger()
    metrics: Dict[str, Any] = {}
    with scratch_dir(args) as scratch:
        try:
            if args.trace:
                metrics = measure_layers(
                    args, ledger, scratch, trace_path(args))
            else:
                metrics = measure_passes(args, ledger, scratch)
        except Exception as exc:
            # Arithmetic over a pass that lost runs, or a bug here: the
            # result is reported as incorrect, never dropped.
            traceback.print_exc()
            ledger.fail("worker", [
                (args.workload, f"{type(exc).__name__}: {exc}")])
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": max(1, ledger.attempted),
        "failed": len(ledger.failed),
        "failures": ledger.reasons,
        "metrics": metrics,
    }))
    return 0


def setup_only(args) -> int:
    """What ``setup_s`` times: import, load families, build the inputs."""
    import workloads

    with scratch_dir(args) as scratch:
        workloads.build(args.workload, args.seed, size_for(args),
                        args.jobs, scratch)
    return 0


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------

def result_stem(args, workload: Optional[str]) -> str:
    parts = ["result", f"seed{args.seed}"]
    if workload:
        parts.append(workload)
    if args.trace:
        parts.append("trace")
    if args.smoke:
        parts.append("smoke")
    return "-".join(parts)


def trace_path(args) -> str:
    return os.path.join(
        args.out_dir, result_stem(args, args.workload) + ".chrome.json")


def child_command(args, workload: str, trace: int, mode: str) -> List[str]:
    command = [
        sys.executable, str(PERF / "run.py"), mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--jobs", str(args.jobs), "--out-dir", args.out_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    return command


def run_child(command: List[str], capture: bool) -> str:
    """Run one interpreter to completion; never leave it behind."""
    child = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, text=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    try:
        out, _ = child.communicate()
    except BaseException:
        child.terminate()  # the worker cleans up on SIGTERM
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command)
    return out or ""


def measure_workload(args, workload: str, trace: int) -> Dict[str, Any]:
    """Launch the fresh interpreters for one workload; merge their output."""
    setups = []
    if not trace:
        for _ in range(1 if args.smoke else SETUP_LAUNCHES):
            started = time.perf_counter()
            run_child(child_command(args, workload, trace, "--setup-only"),
                      capture=False)
            setups.append(time.perf_counter() - started)
    out = run_child(child_command(args, workload, trace, "--worker"),
                    capture=True)
    result = json.loads(out.strip().splitlines()[-1])
    if setups:
        result["metrics"]["setup_s"] = host_metric(setups, "s")
    return result


def describe(name: str, metric: Dict[str, Any]) -> str:
    """One printed line: name, value, unit, spread, clock."""
    value, unit = metric["value"], metric["unit"]
    text = f"  {name:<44} {value:>14.6g} {unit:<15}"
    if metric.get("n", 0) > 1:
        text += (f" median [{metric['q1']:.6g}, {metric['q3']:.6g}] "
                 f"n={metric['n']}")
    if metric.get("exact") or name.startswith("sim_"):
        text += "  (simulated, exact)"
    else:
        text += "  (host)"
    if name in catalog.PAPER:
        text += f"  paper {catalog.PAPER[name]}"
    return text


def report(workload: str, result: Dict[str, Any]) -> None:
    print(f"{workload}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    for name, metric in result["metrics"].items():
        print(describe(name, metric))


def orchestrate(args) -> int:
    if args.jobs > nproc():
        print(f"error: --jobs {args.jobs} exceeds the {nproc()} available "
              "processors; timings would measure contention",
              file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    document = {
        "schema": 1,
        "host": host_facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "jobs": args.jobs,
        "workloads": {},
    }
    for name in names:
        # A smoke run covers both kinds of run, merged per workload.
        for trace in (0, 1) if args.smoke else (args.trace,):
            result = measure_workload(args, name, trace)
            merged = document["workloads"].setdefault(name, result)
            if merged is not result:
                merged["metrics"].update(result["metrics"])
                merged["failures"] += result["failures"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["correct"] = merged["correct"] and result["correct"]
        report(name, document["workloads"][name])
    out = args.out or os.path.join(
        args.out_dir, result_stem(args, args.workload) + ".json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"result -> {out}")
    results = list(document["workloads"].values())
    if args.workload:
        # The contract line: exactly these keys, value + unit per metric.
        only = results[0]
        print(json.dumps({
            "correct": only["correct"],
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in only["metrics"].items()
            },
        }))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="Rng seed of every simulation (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS),
                        help="host seconds of untraced passes per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics from a traced run")
    parser.add_argument("--jobs", type=int, default=min(2, nproc()),
                        help="workers of the sharded / campaign paths")
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--out-dir", default=str(PERF / "out"),
                        help="directory for results, traces and temp caches")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny pass of everything (< 60 s)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out_dir = os.path.abspath(args.out_dir)
    if args.smoke:
        args.seconds = 0.0
    return args


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so temp dirs are removed and child
    # interpreters stopped on the way out.
    signal.signal(signal.SIGTERM, _terminated)
    if args.compare:
        import compare

        return compare.main(args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the repo's own source tree", file=sys.stderr)
        return 2
    if args.worker or args.setup_only:
        if not args.workload:
            print("error: internal modes need --workload", file=sys.stderr)
            return 2
        try:
            return worker(args) if args.worker else setup_only(args)
        except Exception:
            traceback.print_exc()
            return 1
    try:
        return orchestrate(args)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
