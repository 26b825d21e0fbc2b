"""``Environment.close()``: the one teardown that ends a simulation.

Every unfinished process is finalized once (its ``finally`` blocks run
at the close, not whenever the collector gets to it), every owned
generator is closed, and the schedule is emptied; a closed environment
refuses to run.
"""

import pytest

from repro.apps.base import Operation
from repro.core.controller import NullController
from repro.sim import Environment, Rng
from repro.sim.resources import SyncLock, ThreadPool
from repro.workloads.driver import Driver

from ..apps.test_base import TinyApp


@pytest.fixture
def env():
    return Environment()


def test_close_finalizes_every_kind_of_wait_once(env):
    lock = SyncLock(env, "lock")
    pool = ThreadPool(env, "pool", workers=1)
    finals = []

    def waiter(name, wait):
        try:
            yield from wait()
        finally:
            finals.append(name)

    def on_timeout():
        yield env.timeout(100.0)

    def holds_lock():
        with lock.acquire(owner="holder") as grant:
            yield grant
            yield env.timeout(100.0)

    def on_lock():
        with lock.acquire(owner="queued") as grant:
            yield grant

    def holds_slot():
        with pool.submit(owner="holder") as grant:
            yield grant
            yield env.timeout(100.0)

    def on_slot():
        with pool.submit(owner="queued") as grant:
            yield grant

    def on_condition():
        yield env.all_of([env.timeout(50.0), env.event()])

    procs = [
        env.process(waiter(name, wait))
        for name, wait in (
            ("timeout", on_timeout),
            ("lock-holder", holds_lock),
            ("lock-waiter", on_lock),
            ("slot-holder", holds_slot),
            ("slot-waiter", on_slot),
            ("condition", on_condition),
        )
    ]

    def on_process():
        yield procs[0]

    procs.append(env.process(waiter("process", on_process)))
    env.run(until=1.0)
    assert env.alive_processes == len(procs)
    assert lock.queue_length == 1 and pool.queue_length == 1
    waits = [proc.target for proc in procs]
    assert all(target is not None for target in waits)

    env.close()

    assert sorted(finals) == sorted([
        "timeout", "lock-holder", "lock-waiter", "slot-holder",
        "slot-waiter", "condition", "process",
    ])
    # Start order: the processes are finalized in the order they began.
    assert finals[0] == "timeout"
    assert env.alive_processes == 0
    assert env.queue_depth == 0
    # Detached from what they waited on, and their cleanup ran: the
    # lock and the pool hold and queue nobody.
    for proc, target in zip(procs, waits):
        assert proc.target is None
        assert not (target.callbacks or ())
    assert lock.queue_length == 0 and pool.queue_length == 0
    assert pool.active == 0

    env.close()  # a second close is a no-op
    assert len(finals) == len(procs)
    with pytest.raises(RuntimeError, match="closed"):
        env.run(until=2.0)
    with pytest.raises(RuntimeError, match="closed"):
        env.step()


def test_close_finalizes_work_that_cleanup_starts(env):
    finals = []

    def spawned():
        try:
            yield env.timeout(5.0)
        finally:
            finals.append("spawned")

    def parent():
        try:
            yield env.timeout(100.0)
        finally:
            finals.append("parent")
            # Cleanup that starts a process and schedules events.
            env.process(spawned())
            env.timeout(1.0)

    env.process(parent())
    env.run(until=1.0)
    env.close()
    assert finals == ["parent"]
    assert env.alive_processes == 0 and env.queue_depth == 0


def test_close_closes_the_arrival_pumps(env):
    controller = NullController(env)
    app = TinyApp(env, controller, Rng(0))
    driver = Driver(env, app, controller)
    pulled = []

    def arrivals():
        try:
            for i in range(1, 1000):
                pulled.append(i)
                yield (i * 0.5, lambda: Operation("op"))
        finally:
            pulled.append("closed")

    driver.run_arrivals(arrivals())
    env.run(until=2.2)
    assert pulled[-1] != "closed"
    env.close()
    assert pulled[-1] == "closed"
    assert env.queue_depth == 0


def test_a_finished_simulation_closes_without_cleanup(env):
    finals = []

    def short():
        try:
            yield env.timeout(1.0)
        finally:
            finals.append("short")

    env.process(short())
    env.run()
    assert finals == ["short"]
    env.close()
    assert finals == ["short"]
