"""Tests for the FaultInjector runtime: per-kind behavior + determinism."""

import pytest

from repro.campaign.spec import load_all_families
from repro.core.atropos import Atropos
from repro.core.config import AtroposConfig
from repro.core.decision_log import DecisionKind
from repro.experiments.harness import resolve_sim, run_simulation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SignalTap,
    burst,
    cancel_delay,
    cancel_drop,
    crash,
    degrade,
    detector_noise,
    partition,
    uncancellable,
)
from repro.sim import Environment
from repro.sim.resources.disk import DiskIO
from repro.sim.resources.pool import MemoryPool
from repro.sim.resources.threadpool import ThreadPool
from repro.sim.rng import Rng

from ..apps.stub import StubApp


def arm(env, plan, app=None, controller=None, driver=None, seed=0):
    injector = FaultInjector(env, plan, Rng(seed).fork("faults"))
    injector.arm(app=app, controller=controller, driver=driver)
    return injector


# ----------------------------------------------------------------------
# SignalTap
# ----------------------------------------------------------------------

def test_tap_bias_only():
    tap = SignalTap(Rng(0), bias=2.0)
    assert tap(1.0, 0.5) == 1.0


def test_tap_nan_passthrough():
    tap = SignalTap(Rng(0), noise=1.0, bias=2.0)
    out = tap(1.0, float("nan"))
    assert out != out


def test_tap_lag_reports_old_values():
    tap = SignalTap(Rng(0), lag=1.0)
    assert tap(0.0, 10.0) == 10.0
    assert tap(0.5, 20.0) == 10.0  # still within lag of the first sample
    assert tap(2.0, 30.0) == 20.0  # first sample aged out


def test_tap_noise_deterministic_and_nonnegative():
    a = SignalTap(Rng(7), noise=0.5)
    b = SignalTap(Rng(7), noise=0.5)
    outs = [a(t, 1.0) for t in range(20)]
    assert outs == [b(t, 1.0) for t in range(20)]
    assert all(v >= 0.0 for v in outs)
    assert outs != [1.0] * 20


# ----------------------------------------------------------------------
# Degrade / restore lifecycle
# ----------------------------------------------------------------------

def test_degrade_applies_and_restores():
    env = Environment()
    pool = ThreadPool(env, "app.workers", workers=8)
    app = StubApp(env, workers=pool)
    plan = FaultPlan.of(degrade("workers", 0.5, at=1.0, duration=2.0))
    injector = arm(env, plan, app=app)
    env.run(until=0.5)
    assert pool.workers == 8
    env.run(until=2.0)
    assert pool.workers == 4
    env.run(until=4.0)
    assert pool.workers == 8
    phases = [(e.phase, e.applied) for e in injector.events]
    assert phases == [("inject", True), ("restore", True)]


def test_degrade_matches_dotted_suffix():
    env = Environment()
    pool = MemoryPool(env, "mysql.buffer_pool", capacity_pages=100)
    app = StubApp(env, bp=pool)
    injector = arm(
        env, FaultPlan.of(degrade("buffer_pool", 0.5, at=0.0)), app=app
    )
    env.run(until=0.1)
    assert pool.capacity_pages == 50
    assert injector.events[0].applied


def test_degrade_missing_resource_is_recorded_not_fatal():
    env = Environment()
    app = StubApp(env)
    injector = arm(
        env, FaultPlan.of(degrade("buffer_pool", 0.5, at=0.0)), app=app
    )
    env.run(until=0.1)
    assert not injector.events[0].applied
    assert "no degradable resource" in injector.events[0].detail


def test_degrade_lock_reports_no_hook_not_no_match():
    """A lock registered as one of several behind a handle resolves by
    name and reports its missing degrade() hook (the lock.py docstring
    contract), instead of the misleading "no degradable resource
    matching"."""
    from repro.sim.resources import SyncLock

    env = Environment()
    locks = [
        SyncLock(env, f"mongodb.collection_lock.{i}") for i in range(2)
    ]
    app = StubApp(env, collection_locks=locks)
    injector = arm(
        env,
        FaultPlan.of(degrade("collection_lock.1", 0.5, at=0.0)),
        app=app,
    )
    env.run(until=0.1)
    event = injector.events[0]
    assert not event.applied
    assert "mongodb.collection_lock.1 has no degrade() hook" in event.detail


def test_degrade_finds_degradable_resources_inside_lists():
    env = Environment()
    pools = [
        MemoryPool(env, f"app.pool.{i}", capacity_pages=100)
        for i in range(2)
    ]
    app = StubApp(env, pools=pools)
    injector = arm(
        env, FaultPlan.of(degrade("pool.0", 0.5, at=0.0)), app=app
    )
    env.run(until=0.1)
    assert injector.events[0].applied
    assert pools[0].capacity_pages == 50
    assert pools[1].capacity_pages == 100


def test_disk_degrade_scales_bandwidth_and_latency():
    env = Environment()
    disk = DiskIO(
        env, "pg.disk", bandwidth_bytes_per_sec=100.0, op_latency=0.01
    )
    app = StubApp(env, disk=disk)
    arm(env, FaultPlan.of(degrade("disk", 0.25, at=0.0, duration=1.0)), app=app)
    env.run(until=0.5)
    assert disk.bandwidth == pytest.approx(25.0)
    assert disk.op_latency == pytest.approx(0.04)
    env.run(until=2.0)
    assert disk.bandwidth == pytest.approx(100.0)
    assert disk.op_latency == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Signal / cancellation faults against a real controller
# ----------------------------------------------------------------------

def make_atropos(env):
    return Atropos(env, AtroposConfig(slo_latency=0.02))


def test_signal_taps_installed_and_removed():
    env = Environment()
    controller = make_atropos(env)
    plan = FaultPlan.of(detector_noise(noise=0.5, at=1.0, duration=1.0))
    arm(env, plan, controller=controller)
    env.run(until=1.5)
    assert controller.detector.fault_tap is not None
    env.run(until=3.0)
    assert controller.detector.fault_tap is None


def test_cancellation_faults_set_and_clear_manager_state():
    env = Environment()
    controller = make_atropos(env)
    plan = FaultPlan.of(
        cancel_drop(0.75, at=1.0, duration=1.0),
        cancel_delay(0.5, at=3.0, duration=1.0),
        uncancellable(at=5.0, duration=1.0),
    )
    arm(env, plan, controller=controller)
    manager = controller.cancellation
    env.run(until=1.5)
    assert manager.drop_probability == 0.75
    assert manager.fault_rng is not None
    env.run(until=2.5)
    assert manager.drop_probability == 0.0
    env.run(until=3.5)
    assert manager.initiator_delay == 0.5
    env.run(until=5.5)
    assert manager.initiator_delay == 0.0
    assert manager.suspended
    env.run(until=7.0)
    assert not manager.suspended


def test_faults_recorded_in_decision_log():
    env = Environment()
    controller = make_atropos(env)
    arm(
        env,
        FaultPlan.of(uncancellable(at=1.0, duration=1.0)),
        controller=controller,
    )
    env.run(until=3.0)
    fault_events = controller.decision_log.events_of(DecisionKind.FAULT)
    assert len(fault_events) == 2
    assert "inject uncancellable" in fault_events[0].summary
    assert "restore uncancellable" in fault_events[1].summary


def test_signal_fault_without_detector_is_noop():
    env = Environment()
    injector = arm(env, FaultPlan.of(detector_noise(noise=0.5, at=0.0)))
    env.run(until=0.1)
    assert not injector.events[0].applied


def test_partition_without_nodes_drops_cancel_signals():
    env = Environment()
    controller = make_atropos(env)
    arm(
        env,
        FaultPlan.of(partition(at=1.0, duration=1.0)),
        controller=controller,
    )
    env.run(until=1.5)
    assert controller.cancellation.drop_probability == 1.0
    env.run(until=3.0)
    assert controller.cancellation.drop_probability == 0.0


def test_crash_without_an_initiator_is_not_applied():
    env = Environment()
    injector = arm(env, FaultPlan.of(crash(at=0.0, duration=1.0)))
    env.run(until=2.0)
    assert [(e.phase, e.applied) for e in injector.events] == [
        ("inject", False), ("restore", False),
    ]
    assert injector.events[0].detail.startswith("nothing to crash")


# ----------------------------------------------------------------------
# End-to-end through the harness (real case, real workload)
# ----------------------------------------------------------------------

def run_case_c1(plan, seed=0):
    load_all_families()
    build = resolve_sim("case")({"case_id": "c1", "system": "atropos"})
    return run_simulation(
        build.app_factory,
        build.workload_factory,
        build.controller_factory,
        duration=build.duration,
        seed=seed,
        warmup=build.warmup,
        fault_plan=plan,
    )


def test_faulted_run_deterministic_and_differs_from_clean():
    plan = FaultPlan.of(
        cancel_drop(0.5, at=2.0, duration=6.0),
        burst(1.5, at=4.0, duration=2.0),
    )
    clean = run_case_c1(None)
    faulted_a = run_case_c1(plan)
    faulted_b = run_case_c1(plan)
    assert clean.faults is None
    assert faulted_a.summary == faulted_b.summary
    assert [e.to_dict() for e in faulted_a.faults.events] == [
        e.to_dict() for e in faulted_b.faults.events
    ]
    # The burst visibly changes the run (more offered load).
    assert faulted_a.summary != clean.summary


def test_lost_cancels_name_no_cancelled_op():
    """Every signal lost from t=0: nothing reached a task, so neither
    the first cancelled op nor the list names one, while the drops are
    counted."""
    from repro.experiments.harness import extract_extras

    faulted = run_case_c1(FaultPlan.of(cancel_drop(1.0, at=0.0)))
    extras = extract_extras(faulted)
    assert faulted.controller.cancellation.log == []
    assert extras["cancel_signals_dropped"] > 0
    assert extras["cancelled_ops"] == []
    assert extras["first_cancelled_op"] is None


def test_burst_raises_offered_load():
    plan = FaultPlan.of(burst(2.0, at=2.0, duration=8.0))
    clean = run_case_c1(None)
    faulted = run_case_c1(plan)
    assert faulted.collector.offered > clean.collector.offered * 1.3


def test_fault_trace_instants_emitted():
    from repro.obs import Tracer, tracing

    plan = FaultPlan.of(uncancellable(at=2.0, duration=2.0))
    tracer = Tracer()
    with tracing(tracer):
        run_case_c1(plan)
    fault_events = [
        e for e in tracer.events if e.get("cat") == "fault"
    ]
    assert len(fault_events) == 2


def test_faulted_run_stable_across_hash_seeds():
    """Regression: a degrade-lengthened scan overlap exposed hash-order
    nondeterminism in MySQL's backup drain (a set of identity-hashed
    events). Same sim in interpreters with different PYTHONHASHSEED
    must agree."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.campaign.spec import load_all_families\n"
        "from repro.experiments.harness import resolve_sim, run_simulation\n"
        "from repro.faults import FaultPlan, degrade\n"
        "load_all_families()\n"
        "b = resolve_sim('case')({'case_id': 'c1', 'system': 'protego'})\n"
        "p = FaultPlan.of(degrade('buffer_pool', 0.5, at=4.0, duration=4.0))\n"
        "r = run_simulation(b.app_factory, b.workload_factory,\n"
        "                   b.controller_factory, duration=b.duration,\n"
        "                   seed=0, warmup=b.warmup, fault_plan=p)\n"
        "s = r.summary\n"
        "print(f'{s.throughput:.9f} {s.p99_latency:.12f} {s.drop_rate:.9f}')\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
