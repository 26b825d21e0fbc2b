"""Tests for the disk I/O model."""

import pytest

from repro.sim import Environment, Interrupt
from repro.sim.resources import DiskIO


@pytest.fixture
def env():
    return Environment()


def test_io_takes_latency_plus_transfer_time(env):
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=100.0, op_latency=0.5)
    done = []

    def task(env):
        yield from disk.io("a", 100.0)
        done.append(env.now)

    env.process(task(env))
    env.run()
    assert done == [pytest.approx(1.5)]  # 0.5 latency + 1.0 transfer
    assert disk.total_bytes == 100.0


def test_queue_depth_limits_concurrency(env):
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=100.0, op_latency=0.0, queue_depth=1)
    done = {}

    def task(env, tag):
        yield from disk.io(tag, 100.0)
        done[tag] = env.now

    env.process(task(env, "a"))
    env.process(task(env, "b"))
    env.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(2.0)


def test_parallel_within_queue_depth(env):
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=100.0, op_latency=0.0, queue_depth=2)
    done = {}

    def task(env, tag):
        yield from disk.io(tag, 100.0)
        done[tag] = env.now

    env.process(task(env, "a"))
    env.process(task(env, "b"))
    env.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_big_io_delays_small_io(env):
    """A vacuum-style bulk writer inflates foreground read latency (case 8)."""
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=1000.0, op_latency=0.0, queue_depth=1)
    done = {}

    def task(env, tag, nbytes, delay=0.0):
        yield env.timeout(delay)
        yield from disk.io(tag, nbytes)
        done[tag] = env.now

    env.process(task(env, "vacuum", 10_000.0))
    env.process(task(env, "read", 10.0, delay=0.1))
    env.run()
    assert done["read"] == pytest.approx(10.01)


def test_interrupt_while_queued_cleans_up(env):
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=10.0, op_latency=0.0, queue_depth=1)
    log = []

    def task(env, tag, nbytes):
        try:
            yield from disk.io(tag, nbytes)
            log.append((tag, "done"))
        except Interrupt:
            log.append((tag, "cancelled"))

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    env.process(task(env, "big", 100.0))
    victim = env.process(task(env, "victim", 10.0))
    env.process(killer(env, victim))
    env.run()
    assert ("victim", "cancelled") in log
    assert disk.queue_length == 0
    # Only "big" transferred: the queued victim moved no bytes.
    assert log == [("victim", "cancelled"), ("big", "done")]
    assert disk.total_bytes == 100.0


def test_negative_bytes_rejected(env):
    disk = DiskIO(env, "d")

    def task(env):
        yield from disk.io("a", -5.0)

    env.process(task(env))
    with pytest.raises(ValueError):
        env.run()


def test_total_bytes_accumulates(env):
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=1e9, op_latency=0.0)

    def task(env, tag, nbytes):
        yield from disk.io(tag, nbytes)

    env.process(task(env, "a", 100.0))
    env.process(task(env, "b", 200.0))
    env.run()
    assert disk.total_bytes == 300.0
