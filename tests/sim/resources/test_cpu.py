"""Tests for the time-sliced CPU model."""

import pytest

from repro.sim import Environment, Interrupt
from repro.sim.resources import CPU


@pytest.fixture
def env():
    return Environment()


def test_single_task_runs_at_full_speed(env):
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    done = []

    def task(env):
        charged = yield from cpu.execute("a", 0.1)
        done.append((env.now, charged))

    env.process(task(env))
    env.run()
    assert done == [(pytest.approx(0.1), pytest.approx(0.1))]
    assert cpu.cpu_seconds == pytest.approx(0.1)


def test_two_tasks_share_one_core(env):
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    done = {}

    def task(env, tag, demand):
        yield from cpu.execute(tag, demand)
        done[tag] = env.now

    env.process(task(env, "a", 0.1))
    env.process(task(env, "b", 0.1))
    env.run()
    # Interleaved: both finish around the total demand (0.2), not 0.1.
    assert done["a"] == pytest.approx(0.2, abs=0.02)
    assert done["b"] == pytest.approx(0.2, abs=0.02)


def test_two_cores_run_in_parallel(env):
    cpu = CPU(env, "cpu", cores=2, slice_time=0.01)
    done = {}

    def task(env, tag):
        yield from cpu.execute(tag, 0.1)
        done[tag] = env.now

    env.process(task(env, "a"))
    env.process(task(env, "b"))
    env.run()
    assert done["a"] == pytest.approx(0.1)
    assert done["b"] == pytest.approx(0.1)


def test_short_task_not_starved_by_hog(env):
    """Slicing lets a short task finish long before a CPU hog."""
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    done = {}

    def task(env, tag, demand):
        yield from cpu.execute(tag, demand)
        done[tag] = env.now

    env.process(task(env, "hog", 1.0))
    env.process(task(env, "short", 0.02))
    env.run()
    assert done["short"] < 0.1
    assert done["hog"] == pytest.approx(1.02, abs=0.02)


def test_interrupt_mid_execution_charges_partial_usage(env):
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    outcome = []

    def task(env):
        try:
            yield from cpu.execute("victim", 1.0)
        except Interrupt:
            outcome.append(env.now)

    def killer(env, target):
        yield env.timeout(0.05)
        target.interrupt()

    t = env.process(task(env))
    env.process(killer(env, t))
    env.run()
    assert outcome and outcome[0] == pytest.approx(0.05, abs=0.01)
    assert 0.0 < cpu.cpu_seconds <= 0.06
    # The core is free again.
    assert cpu.busy_cores == 0


def test_zero_time_execution_is_noop(env):
    cpu = CPU(env, "cpu", cores=1)
    done = []

    def task(env):
        charged = yield from cpu.execute("a", 0.0)
        done.append((env.now, charged))
        yield env.timeout(0)

    env.process(task(env))
    env.run()
    assert done == [(0.0, 0.0)]
    assert cpu.cpu_seconds == 0.0


def test_negative_time_rejected(env):
    cpu = CPU(env, "cpu", cores=1)

    def task(env):
        yield from cpu.execute("a", -1.0)

    env.process(task(env))
    with pytest.raises(ValueError):
        env.run()


def test_run_queue_length(env):
    cpu = CPU(env, "cpu", cores=1, slice_time=1.0)
    seen = []

    def task(env, tag):
        yield from cpu.execute(tag, 3.0)

    def observer(env):
        yield env.timeout(0.5)
        seen.append(cpu.run_queue_length)

    env.process(task(env, "a"))
    env.process(task(env, "b"))
    env.process(observer(env))
    env.run()
    assert seen == [1]
