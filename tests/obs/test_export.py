"""Exporter tests: Chrome-trace schema, determinism, CSV flattening.

The scenario below drives every traced primitive -- processes, a lock,
a thread pool, a memory pool, CPU, disk, and an interrupt -- through a
real :class:`Environment`, so the exported trace exercises each event
phase the hooks can produce.
"""

import json

from repro.obs import (
    Tracer,
    chrome_trace_payload,
    dumps_chrome_trace,
    render_trace_summary,
    utilization_rows,
    write_audit_json,
    write_chrome_trace,
    write_utilization_csv,
)
from repro.sim import Environment
from repro.sim.errors import Interrupt
from repro.sim.resources import CPU, DiskIO, MemoryPool, SyncLock, ThreadPool

#: ph values the Trace Event Format defines for what we emit.
KNOWN_PHASES = {"X", "b", "e", "i", "C", "M"}


def run_scenario(tracer):
    """One deterministic mixed-resource simulation, traced by `tracer`."""
    tracer.new_run("scenario")
    env = Environment(tracer=tracer)
    lock = SyncLock(env, "table")
    pool = ThreadPool(env, "workers", 1)
    mem = MemoryPool(env, "buffer", capacity_pages=10)
    cpu = CPU(env, "cpu0", cores=1)
    disk = DiskIO(env, "disk0", bandwidth_bytes_per_sec=1e6)

    def worker(env, name, pages, release=True):
        with pool.submit(owner=name) as slot:
            yield slot
            with lock.acquire(owner=name) as grant:
                yield grant
                mem.acquire(name, pages)
                yield from cpu.execute(name, 0.004)
                yield from disk.io(name, 2000)
            if release:
                mem.release(name)

    def doomed(env):
        # Queue behind w1's hold (w1 grabs the lock in the first instant).
        yield env.timeout(0.001)
        grant = lock.acquire(owner="doomed")
        try:
            yield grant
        except Interrupt:
            grant.close()  # abandoned while waiting

    env.process(worker(env, "w1", pages=8, release=False))
    env.process(worker(env, "w2", pages=6))  # evicts w1's resident pages
    victim = env.process(doomed(env))
    env.run(until=0.002)
    victim.interrupt("test")
    env.run(until=1.0)
    tracer.close_open_spans(env.now)
    return tracer


def test_scenario_covers_every_phase():
    tracer = run_scenario(Tracer())
    phases = {e["ph"] for e in tracer.events}
    assert phases == KNOWN_PHASES
    cats = set(tracer.counts)
    assert {"lock", "tpool", "mem", "cpu", "disk", "process"} <= cats


def test_chrome_trace_schema():
    tracer = run_scenario(Tracer())
    payload = chrome_trace_payload(tracer)
    assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert payload["otherData"]["runs"] == ["scenario"]
    for event in payload["traceEvents"]:
        assert event["ph"] in KNOWN_PHASES
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            continue
        assert "ts" in event and event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] in ("b", "e"):
            assert isinstance(event["id"], int)
        if event["ph"] == "C":
            assert all(
                isinstance(v, (int, float)) for v in event["args"].values()
            )


def test_trace_bytes_are_deterministic():
    first = dumps_chrome_trace(run_scenario(Tracer()))
    second = dumps_chrome_trace(run_scenario(Tracer()))
    assert first == second
    json.loads(first)  # and it is valid JSON


def test_write_chrome_trace_round_trip(tmp_path):
    tracer = run_scenario(Tracer())
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path)
    loaded = json.loads(path.read_text())
    assert loaded == chrome_trace_payload(tracer)


def test_utilization_rows_flatten_counters(tmp_path):
    tracer = run_scenario(Tracer())
    rows = utilization_rows(tracer)
    assert rows  # the scenario samples several counters
    for run, time_s, resource, series, value in rows:
        assert run == "scenario"
        assert float(time_s) >= 0
        assert isinstance(resource, str) and isinstance(series, str)
        assert isinstance(value, (int, float))
    resources = {r for _, _, r, _, _ in rows}
    assert "lock:table" in resources
    path = tmp_path / "util.csv"
    write_utilization_csv(tracer, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "run,time_s,resource,series,value"
    assert len(lines) == len(rows) + 1


def test_write_audit_json(tmp_path):
    path = tmp_path / "audits.json"
    audits = [{"verdict": "cancelled", "time": 1.5}]
    write_audit_json(audits, path)
    assert json.loads(path.read_text()) == {"audits": audits}


def test_render_trace_summary_mentions_counts():
    tracer = run_scenario(Tracer())
    summary = render_trace_summary(tracer)
    assert "runs traced:" in summary
    assert "lock" in summary


def test_page_escapes_its_heading():
    from repro.obs.export import page

    text = page("smoke <report>", "<p>body</p>")
    assert text.startswith("<!DOCTYPE html>")
    assert "<title>smoke &lt;report&gt;</title>" in text
    assert "<h1>smoke &lt;report&gt;</h1>" in text
    assert "<p>body</p>" in text
