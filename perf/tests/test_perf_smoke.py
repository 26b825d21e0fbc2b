"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest perf/tests -q

Runs ``perf/run.py --smoke`` once (an end-to-end and a traced run of all
four workloads) in a temp directory and checks the contract: every
metric ``BENCHMARK.json`` lists is emitted exactly once per workload with
a finite value and its unit, the catalog in code equals the file,
``compare.py`` tells a synthetic regression from an identical pair, and
a run that raises is counted as failed instead of ending the benchmark.
"""

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import catalog  # noqa: E402
import compare  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perf-out")


@pytest.fixture(scope="module")
def smoke(out_dir) -> dict:
    """One ``--smoke`` run: end-to-end and traced, all four workloads."""
    out = out_dir / "smoke.json"
    subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke",
         "--out-dir", str(out_dir), "--out", str(out)],
        check=True, cwd=ROOT, timeout=120,
    )
    with open(out) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalog():
    with open(ROOT / "BENCHMARK.json") as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_catalog_names_are_wellformed_and_unique():
    names = (
        list(catalog.WORKLOADS)
        + [m.name for m in catalog.END_TO_END]
        + [m.name for m in catalog.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in catalog.PER_LAYER:
        catalog.moves(metric.name)  # every layer metric has an interaction
    assert "setup_s" in {m.name for m in catalog.END_TO_END}


def test_every_listed_metric_is_emitted_once(smoke, out_dir):
    expected = {m.name: m.unit for m in catalog.END_TO_END}
    expected.update({m.name: m.unit for m in catalog.PER_LAYER})
    assert set(smoke["workloads"]) == set(catalog.WORKLOADS)
    for workload, result in smoke["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (
            workload, result["failures"])
        assert result["attempted"] >= 1
        # JSON objects cannot repeat a key, so equal key sets mean every
        # metric was emitted exactly once.
        metrics = result["metrics"]
        assert set(metrics) == set(expected), workload
        for name, metric in metrics.items():
            assert math.isfinite(metric["value"]), (workload, name)
            assert metric["unit"] == expected[name], (workload, name)
    for key in ("nproc", "python", "loadavg_1m", "commit"):
        assert key in smoke["host"]


def test_traced_runs_write_loadable_chrome_traces(smoke, out_dir):
    traces = sorted(out_dir.glob("*.chrome.json"))
    assert len(traces) == len(catalog.WORKLOADS)
    with open(traces[0]) as handle:
        events = json.load(handle)["traceEvents"]
    names = {event["name"] for event in events}
    assert {"build", "sim.run", "summarize", "extras", "execute.cold",
            "execute.warm", "run.serial", "run.sharded"} <= names


def test_run_leaves_no_temp_dirs(smoke, out_dir):
    assert not list(out_dir.glob("tmp-*"))


def test_compare_passes_an_identical_pair(smoke):
    rows = compare.compare(smoke, smoke)
    assert rows and all(row["verdict"] == "ok" for row in rows)


def _slowed(document: dict, factor: float) -> dict:
    slower = copy.deepcopy(document)
    for result in slower["workloads"].values():
        for key in ("value", "q1", "q3"):
            result["metrics"]["wall_s"][key] *= factor
    return slower


def test_compare_flags_a_regression_beyond_the_bound(smoke):
    bound = {m.name: m.bound for m in catalog.END_TO_END}["wall_s"]
    rows = compare.compare(smoke, _slowed(smoke, 1 + bound + 0.05))
    worse = {(r["workload"], r["metric"]) for r in rows
             if r["verdict"] == "worse"}
    assert worse == {(w, "wall_s") for w in catalog.WORKLOADS}
    rows = compare.compare(smoke, _slowed(smoke, 1 + bound - 0.05))
    assert all(r["verdict"] == "ok" for r in rows)


def test_compare_flags_an_exact_mismatch(smoke):
    changed = copy.deepcopy(smoke)
    first = next(iter(changed["workloads"].values()))
    first["metrics"]["sim.events"]["value"] += 1
    rows = compare.compare(smoke, changed)
    assert [r["metric"] for r in rows if r["verdict"] == "mismatch"] == [
        "sim.events"]


def test_a_run_that_raises_is_counted_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from spans import Spans

    timed = workloads.CasesWorkload._timed

    def failing(self, spans, case, factory):
        if case.case_id == "c5":
            raise ValueError("boom")
        return timed(self, spans, case, factory)

    monkeypatch.setattr(workloads.CasesWorkload, "_timed", failing)
    pass_ = workloads.CasesWorkload(
        0, workloads.SMOKE, controlled=False).run_pass(Spans(enabled=False))
    assert pass_.failures == [("c5", "ValueError: boom")]
    assert pass_.attempted == len(workloads.CASE_IDS)
    assert len(pass_.runs) == pass_.attempted - 1


def test_jobs_above_nproc_is_refused(out_dir):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--jobs", "4096",
         "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "exceeds" in done.stderr
