"""Tests for the bounded worker pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.resources import QueueFull, ThreadPool

from ...core.callcount import counted


@pytest.fixture
def env():
    return Environment()


def run_job(env, pool, tag, duration, log, klass="default"):
    with pool.submit(owner=tag, klass=klass) as slot:
        yield slot
        log.append((tag, "start", env.now))
        yield env.timeout(duration)
        log.append((tag, "end", env.now))


def test_jobs_run_concurrently_up_to_workers(env):
    pool = ThreadPool(env, "p", workers=2)
    log = []
    for tag in ("a", "b", "c"):
        env.process(run_job(env, pool, tag, 4.0, log))
    env.run()
    starts = {tag: t for tag, what, t in log if what == "start"}
    assert starts["a"] == 0.0
    assert starts["b"] == 0.0
    assert starts["c"] == 4.0


def test_fifo_ordering(env):
    pool = ThreadPool(env, "p", workers=1)
    log = []
    for tag in ("a", "b", "c"):
        env.process(run_job(env, pool, tag, 1.0, log))
    env.run()
    starts = [tag for tag, what, _ in log if what == "start"]
    assert starts == ["a", "b", "c"]


def test_queue_capacity_rejects_when_full(env):
    pool = ThreadPool(env, "p", workers=1, queue_capacity=1)
    rejected = []

    def spam(env, tag):
        try:
            with pool.submit(owner=tag) as slot:
                yield slot
                yield env.timeout(10.0)
        except QueueFull:
            rejected.append(tag)
            yield env.timeout(0)

    for tag in ("a", "b", "c"):
        env.process(spam(env, tag))
    env.run(until=1.0)
    # a runs, b queues, c is rejected.
    assert rejected == ["c"]


def test_cancelled_waiter_leaves_queue(env):
    pool = ThreadPool(env, "p", workers=1)
    log = []

    def blocker(env):
        with pool.submit(owner="blocker") as slot:
            yield slot
            yield env.timeout(10.0)

    def waiter(env):
        try:
            with pool.submit(owner="w") as slot:
                yield slot
                log.append("ran")
        except Interrupt:
            log.append("cancelled")

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    env.process(blocker(env))
    w = env.process(waiter(env))
    env.process(killer(env, w))
    env.run()
    assert log == ["cancelled"]
    assert pool.queue_length == 0


def test_interrupting_runner_frees_worker(env):
    pool = ThreadPool(env, "p", workers=1)
    log = []

    def runner(env):
        try:
            with pool.submit(owner="r") as slot:
                yield slot
                yield env.timeout(100.0)
        except Interrupt:
            log.append(("cancelled", env.now))

    def follower(env):
        yield env.timeout(1.0)
        with pool.submit(owner="f") as slot:
            yield slot
            log.append(("follower-start", env.now))

    def killer(env, target):
        yield env.timeout(5.0)
        target.interrupt()

    r = env.process(runner(env))
    env.process(follower(env))
    env.process(killer(env, r))
    env.run()
    assert ("cancelled", 5.0) in log
    assert ("follower-start", 5.0) in log


def test_reservation_keeps_workers_for_class(env):
    pool = ThreadPool(env, "p", workers=2)
    pool.reserve("short", 1)
    log = []

    # Two long jobs of the unreserved class: only one may run.
    env.process(run_job(env, pool, "long1", 10.0, log, klass="long"))
    env.process(run_job(env, pool, "long2", 10.0, log, klass="long"))

    def short_job(env):
        yield env.timeout(1.0)
        yield from run_job(env, pool, "short1", 1.0, log, klass="short")

    env.process(short_job(env))
    env.run()
    starts = {tag: t for tag, what, t in log if what == "start"}
    assert starts["long1"] == 0.0
    assert starts["short1"] == 1.0  # reserved worker was free
    assert starts["long2"] == 10.0  # had to wait for long1


def test_reserve_more_than_workers_rejected(env):
    pool = ThreadPool(env, "p", workers=2)
    with pytest.raises(ValueError):
        pool.reserve("a", 3)
    pool.reserve("a", 1)
    with pytest.raises(ValueError):
        pool.reserve("b", 2)


def test_clear_reservations(env):
    pool = ThreadPool(env, "p", workers=2)
    pool.reserve("a", 2)
    pool.clear_reservations()
    log = []
    env.process(run_job(env, pool, "x", 1.0, log, klass="other"))
    env.process(run_job(env, pool, "y", 1.0, log, klass="other"))
    env.run()
    starts = [t for _, what, t in log if what == "start"]
    assert starts == [0.0, 0.0]


def test_busy_and_wait_accounting(env):
    pool = ThreadPool(env, "p", workers=1)
    log = []
    env.process(run_job(env, pool, "a", 2.0, log))
    env.process(run_job(env, pool, "b", 3.0, log))
    env.run()
    assert pool.total_busy_time == 5.0
    assert pool.total_wait_time == 2.0


def test_introspection_counts(env):
    pool = ThreadPool(env, "p", workers=2)
    log = []
    snapshots = []

    def observer(env):
        yield env.timeout(0.5)
        snapshots.append((pool.active, pool.queue_length, pool.idle_workers))

    for tag in ("a", "b", "c"):
        env.process(run_job(env, pool, tag, 2.0, log))
    env.process(observer(env))
    env.run()
    assert snapshots == [(2, 1, 0)]


def test_invalid_workers_rejected(env):
    with pytest.raises(ValueError):
        ThreadPool(env, "p", workers=0)


class ScanningPool(ThreadPool):
    """The reservation dispatch as it was: rescan every waiter, judging
    each one afresh, after every grant (kept as the reference)."""

    def _reserved_headroom(self, klass):
        headroom = 0
        for group, reserved in self._reservations.items():
            if klass in group:
                continue
            in_use = sum(1 for g in self._running if g.klass in group)
            headroom += max(0, reserved - in_use)
        return headroom

    def _can_run(self, grant):
        idle = self.idle_workers
        if idle <= 0:
            return False
        return idle > self._reserved_headroom(grant.klass)

    def _dispatch(self):
        if not self._reservations:
            return super()._dispatch()
        progressed = True
        while progressed:
            progressed = False
            for grant in list(self._waiters):
                if self._can_run(grant):
                    self._waiters.remove(grant)
                    self._running.append(grant)
                    self.total_wait_time += self.env.now - grant.request_time
                    grant._mark_granted()
                    progressed = True
                    break


_POOL_CLASSES = ["light", "static", "heavy", "default"]
_pool_op = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(_POOL_CLASSES)),
    st.tuples(st.just("submit"), st.sampled_from(_POOL_CLASSES)),
    st.tuples(
        st.sampled_from(["close_queued", "close_running"]),
        st.integers(min_value=0, max_value=30),
    ),
    st.tuples(
        st.just("reserve"),
        st.sampled_from([("light", "static"), ("heavy",), "default"]),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(st.just("clear")),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.25])),
)


def _pool_step(env, pool, grants, op):
    """Apply one op; returns what it raised (so both sides can agree)."""
    kind = op[0]
    if kind == "submit":
        grants.append(pool.submit(owner=len(grants), klass=op[1]))
    elif kind in ("close_queued", "close_running"):
        pick = list(pool._waiters if kind == "close_queued" else pool._running)
        if pick:
            pick[op[1] % len(pick)].close()
    elif kind == "reserve":
        try:
            pool.reserve(op[1], op[2])
        except ValueError as exc:
            return str(exc)
    elif kind == "clear":
        pool.clear_reservations()
    elif kind == "resize":
        pool.resize(op[1])
    else:
        env.now += op[1]
    return None


class TestReservationDispatch:
    @given(ops=st.lists(_pool_op, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_same_grants_in_the_same_order_as_a_full_rescan(self, ops):
        sides = []
        for cls in (ThreadPool, ScanningPool):
            env = Environment()
            sides.append((env, cls(env, "p", workers=4), []))
        for op in ops:
            outcomes = [
                _pool_step(env, pool, grants, op)
                for env, pool, grants in sides
            ]
            assert outcomes[0] == outcomes[1]
            (_, new, _), (_, ref, _) = sides
            # Running is in grant order: a grant is appended when made.
            assert [g.owner for g in new._running] == [
                g.owner for g in ref._running
            ]
            assert [g.owner for g in new._waiters] == [
                g.owner for g in ref._waiters
            ]
            assert new.total_wait_time == ref.total_wait_time

    @pytest.mark.parametrize("idle", [0, 1])
    def test_a_dispatch_judges_each_class_once(self, env, idle):
        """With no idle worker nobody is judged; with one kept for
        another class's reservation, the queue's one class is judged
        once -- not every queued request."""
        pool = ThreadPool(env, "p", workers=2)
        pool.reserve("light", 1)
        for _ in range(2 - idle):
            pool.submit(klass="heavy" if idle else "light")
        for _ in range(300):
            pool.submit(klass="heavy")
        assert pool.queue_length == 300
        _, calls, _, _ = counted(pool._dispatch)
        assert calls <= 3, calls
