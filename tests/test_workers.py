"""The worker primitive (``repro.workers``), alone and under both users.

One fork / pipe / EOF protocol sits under the campaign pool and the
shard pool, so what a dying or raising worker looks like is tested once
here, against the primitive and then against each user's named error.
"""

import multiprocessing
import os
import time

import pytest

from repro.campaign import CampaignWorkerError, RunSpec, execute
from repro.cluster import ClusterNode, ShardError, demo_fleet, run_fleet
from repro.cluster.epoch import ShardPool
from repro.cluster.fleet import _FleetPlanner
from repro.experiments import harness
from repro.experiments.case_family import case_spec
from repro.workers import RemoteTraceback, WorkerFailure, Workers, can_fork

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the tests hand workers closures, which only fork can start",
)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}+{b}")  # unpickling calls __init__("a+b")


def _serving(index, scale):
    def handle(message):
        if message == "exit":
            os._exit(7)
        if message == "raise":
            raise KeyError("no such thing")
        if message == "unpicklable":
            raise Unpicklable(1, 2)
        if message == "sleep":
            time.sleep(60)
        return (index, message * scale)

    return handle


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    assert not multiprocessing.active_children()


class TestPrimitive:
    def test_each_worker_answers_its_own_messages_in_order(self):
        with Workers(2, _serving, 10) as pool:
            for message in (1, 2):
                pool.send(0, message)
                pool.send(1, -message)
            assert [pool.recv(0), pool.recv(0)] == [(0, 10), (0, 20)]
            assert [pool.recv(1), pool.recv(1)] == [(1, -10), (1, -20)]

    def test_wait_any_names_the_workers_with_a_reply(self):
        with Workers(3, _serving, 1) as pool:
            pool.send(1, 5)
            assert pool.wait_any([0, 1, 2]) == [1]
            assert pool.recv(1) == (1, 5)

    def test_a_worker_that_exits_mid_message_is_named_with_its_exit_code(self):
        with Workers(2, _serving, 1) as pool:
            pool.send(1, "exit")
            assert pool.wait_any([0, 1]) == [1]  # death wakes the waiter
            with pytest.raises(WorkerFailure) as caught:
                pool.recv(1)
        failure = caught.value
        assert failure.exitcode == 7
        assert failure.exc is None and not failure.text
        assert "exit code 7" in str(failure)

    def test_a_raising_handler_keeps_its_type_and_ships_its_traceback(self):
        with Workers(1, _serving, 1) as pool:
            pool.send(0, "raise")
            with pytest.raises(WorkerFailure) as caught:
                pool.recv(0)
            failure = caught.value
            assert type(failure.exc) is KeyError
            assert failure.exc.args == ("no such thing",)
            assert "Traceback" in failure.text and "in handle" in failure.text
            assert failure.text in str(failure)
            # The worker survived and still serves.
            pool.send(0, 3)
            assert pool.recv(0) == (0, 3)

    def test_an_exception_that_cannot_cross_the_pipe_arrives_as_text(self):
        with Workers(1, _serving, 1) as pool:
            pool.send(0, "unpicklable")
            with pytest.raises(WorkerFailure) as caught:
                pool.recv(0)
        assert caught.value.exc is None
        assert "Unpicklable: 1+2" in caught.value.text

    def test_close_is_idempotent(self):
        pool = Workers(2, _serving, 1)
        procs = list(pool.procs)
        pool.close()
        pool.close()
        pool.close(terminate=True)
        assert [proc.exitcode for proc in procs] == [0, 0]

    def test_leaving_on_an_exception_does_not_wait_for_work_in_flight(self):
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="parent gave up"):
            with Workers(2, _serving, 1) as pool:
                pool.send(0, "sleep")
                raise RuntimeError("parent gave up")
        assert time.monotonic() - started < 10

    def test_a_worker_may_not_fork(self):
        assert can_fork()

        def setup(index):
            return lambda message: can_fork()

        with Workers(1, setup) as pool:
            pool.send(0, "can you?")
            assert pool.recv(0) is False


# ----------------------------------------------------------------------
# The two users: same failures, each under its own name
# ----------------------------------------------------------------------

def _campaign(monkeypatch, failure):
    def builder(params):
        if failure == "exits":
            os._exit(9)
        if failure == "unpicklable":
            raise Unpicklable(1, 2)
        raise RuntimeError("injected fault")

    # Fork-started workers inherit the patched registry.
    monkeypatch.setitem(harness._SIM_BUILDERS, "test.fails", builder)
    specs = [
        case_spec("test", "c1", 0, include_culprit=False),
        RunSpec("test", "test.fails", {}, seed=0, duration=1.0),
    ]
    with pytest.raises(Exception) as caught:
        execute(specs, jobs=2, cache=False)
    return caught.value


def _shards(monkeypatch, failure):
    healthy = ClusterNode.advance

    def advance(self, epoch, *args):
        if self.name == "node-2" and epoch == 3:
            if failure == "exits":
                os._exit(9)
            if failure == "unpicklable":
                raise Unpicklable(1, 2)
            raise RuntimeError("injected fault")
        return healthy(self, epoch, *args)

    monkeypatch.setattr(ClusterNode, "advance", advance)
    with pytest.raises(Exception) as caught:
        run_fleet(demo_fleet(n_nodes=3, duration=3, warmup=1), jobs=2)
    return caught.value


USERS = {"campaign": _campaign, "shards": _shards}


@pytest.mark.parametrize("user", sorted(USERS))
class TestBothUsers:
    def test_dead_worker_is_a_named_error_with_its_exit_code(
        self, monkeypatch, user
    ):
        error = USERS[user](monkeypatch, "exits")
        assert type(error) is {
            "campaign": CampaignWorkerError, "shards": ShardError,
        }[user]
        assert "exit code 9" in str(error)
        if user == "campaign":
            assert error.exitcode == 9 and "test.fails" in error.spec
        else:
            assert (error.shard, error.epoch) == (0, 3)

    def test_raising_worker_keeps_its_type_and_its_traceback(
        self, monkeypatch, user
    ):
        error = USERS[user](monkeypatch, "raises")
        if user == "campaign":
            # Re-raised as itself, the worker's frames chained beneath.
            assert type(error) is RuntimeError
            assert str(error) == "injected fault"
            assert type(error.__cause__) is RemoteTraceback
            text = str(error.__cause__)
        else:
            assert type(error) is ShardError
            assert "node node-2 raised" in str(error)
            text = str(error)
        assert "Traceback (most recent call last)" in text
        assert "RuntimeError: injected fault" in text
        assert "in builder" in text or "in advance" in text

    def test_an_exception_that_cannot_be_sent_is_still_named(
        self, monkeypatch, user
    ):
        error = USERS[user](monkeypatch, "unpicklable")
        assert type(error) is {
            "campaign": CampaignWorkerError, "shards": ShardError,
        }[user]
        assert "died" not in str(error)
        assert "Unpicklable: 1+2" in str(error)
        if user == "campaign":
            assert error.exitcode is None and "test.fails" in error.spec


def test_shard_pool_close_is_idempotent():
    pool = ShardPool(_FleetPlanner(demo_fleet(n_nodes=3)), 2)
    pool.close()
    pool.close()
