"""Tests for the pBox, DARC, PARTIES, and SEDA baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DARC, Parties, PBox, Seda, controller_factory
from repro.cases import get_case
from repro.core import ResourceType
from repro.sim import Environment, RequestRecord, RequestStatus

from .tuned import tuned


@pytest.fixture
def env():
    return Environment()


class TestPBox:
    def test_penalty_applied_and_expires(self, env):
        p = tuned(PBox, penalty_delay=0.05, penalty_duration=0.5)(env)
        task = p.create_cancel()
        p._penalized[task.seq] = env.now + 0.5
        assert p.throttle_delay(task) == 0.05
        env.run(until=1.0)
        assert p.throttle_delay(task) == 0.0
        assert task.seq not in p._penalized

    def test_penalizes_top_consumer_of_overloaded_resource(self, env):
        p = tuned(PBox, contention_threshold=0.1)(env)
        mem = p.register_resource("pool", ResourceType.MEMORY)
        hog = p.create_cancel()
        small = p.create_cancel()
        p.runtime.activity.task_started()
        env.run(until=1.0)
        p.get_resource(hog, mem, 1000)
        p.get_resource(small, mem, 10)
        p.slow_by_resource(hog, mem, 0.9, events=900)
        p._maybe_penalize()
        assert p.throttle_delay(hog) > 0
        assert p.throttle_delay(small) == 0.0

    def test_never_drops(self):
        case = get_case("c5")
        pbox = case.run(
            controller_factory=controller_factory("pbox", case.slo_latency)
        )
        counts = pbox.collector.status_counts()
        assert counts[RequestStatus.CANCELLED] == 0

    def test_partial_mitigation_on_c5(self):
        """pBox throttles the dump but cannot free held pages."""
        case = get_case("c5")
        overload = case.run()
        pbox = case.run(
            controller_factory=controller_factory("pbox", case.slo_latency)
        )
        atropos = case.run(
            controller_factory=controller_factory("atropos", case.slo_latency)
        )
        assert pbox.p99_latency <= overload.p99_latency
        assert atropos.p99_latency < pbox.p99_latency


class TestDARC:
    def test_reserves_workers_on_bind(self, env):
        from repro.apps.mysql import MySQL
        from repro.sim import Rng

        darc = tuned(DARC, reserved_fraction=0.5)(env)
        app = MySQL(env, darc, Rng(0))
        darc.bind(app)
        reserved = sum(
            n
            for group, n in app.innodb_queue._reservations.items()
            if "light" in group
        )
        assert reserved >= app.innodb_queue.workers // 2

    def test_never_reserves_every_worker(self, env):
        from repro.sim.resources import SyncLock, ThreadPool

        from ..apps.stub import StubApp

        single = ThreadPool(env, "stub.single", workers=1)
        pair = ThreadPool(env, "stub.pair", workers=2)
        darc = tuned(DARC, reserved_fraction=0.9)(env)
        darc.bind(
            StubApp(
                env, darc, single=single, pair=pair,
                latch=SyncLock(env, "stub.latch"),
            )
        )
        # Heavy requests must keep a worker: no reservation on a pool
        # of one, one of two reserved on the pair, locks left alone.
        assert single._reservations == {}
        assert sum(pair._reservations.values()) == 1

    def test_keeps_lights_flowing_in_c2(self):
        """Reserved workers shield light queries from slow-query floods."""
        case = get_case("c2")
        overload = case.run()
        darc = case.run(controller_factory=controller_factory("darc"))

        def light_p99(result):
            lats = [
                r.latency
                for r in result.collector.records
                if r.completed and r.op_name in ("point_select", "row_update")
            ]
            lats.sort()
            return lats[int(len(lats) * 0.99)] if lats else float("nan")

        assert light_p99(darc) < light_p99(overload) / 2

    def test_cannot_fix_lock_convoy_c4(self):
        """Worker reservations do not release a held table lock."""
        case = get_case("c4")
        overload = case.run()
        darc = case.run(controller_factory=controller_factory("darc"))
        assert darc.p99_latency > overload.p99_latency * 0.2


class TestParties:
    def test_admission_respects_limits(self, env):
        p = tuned(Parties, initial_limit=2)(env)
        assert p.admit("op", "c1")
        p.create_cancel(client_id="c1")
        p.create_cancel(client_id="c1")
        assert not p.admit("op", "c1")
        assert p.admit("op", "c2")

    def test_violation_shrinks_heaviest_client(self, env):
        p = tuned(Parties, adjust_period=0.1, initial_limit=8)(
            env, slo_latency=0.01
        )
        p.start()
        task = p.create_cancel(client_id="greedy")
        p.observe_completion(
            RequestRecord(1, "op", "victim", 0.0, 0.0, RequestStatus.COMPLETED)
        )
        # Feed SLO-violating completions.
        for i in range(20):
            p.observe_completion(
                RequestRecord(
                    i, "op", "victim", 0.0, 0.001 * i, RequestStatus.COMPLETED
                )
            )
        env.run(until=0.25)
        assert p.limits["greedy"] < 8

    def test_healthy_restores_limits(self, env):
        p = tuned(Parties, adjust_period=0.1, initial_limit=8)(
            env, slo_latency=10.0
        )
        p.limits["c"] = 2
        p.start()
        env.run(until=0.55)
        assert p.limits["c"] > 2

    def test_rejections_counted_in_c2(self):
        case = get_case("c2")
        parties = case.run(
            controller_factory=controller_factory("parties", case.slo_latency)
        )
        # PARTIES throttles the analytics client at admission.
        assert parties.drop_rate > 0.0


class TestSeda:
    def test_rate_decreases_on_violation(self, env):
        s = tuned(Seda, adjust_period=0.1, initial_rate=100.0)(
            env, slo_latency=0.01
        )
        s.start()
        for i in range(20):
            s.observe_completion(
                RequestRecord(
                    i, "op", "c", 0.0, 0.001 * i, RequestStatus.COMPLETED
                )
            )
        env.run(until=0.15)
        assert s.rate < 100.0

    def test_rate_recovers_when_healthy(self, env):
        s = tuned(Seda, adjust_period=0.1, initial_rate=100.0)(
            env, slo_latency=10.0
        )
        s.start()
        env.run(until=0.55)
        assert s.rate > 100.0

    def test_tokens_limit_admission(self, env):
        s = tuned(Seda, initial_rate=10.0, adjust_period=0.1)(env)
        admitted = sum(1 for _ in range(100) if s.admit("op", "c"))
        assert admitted < 100
        assert s.rejections > 0


_pbox_op = st.one_of(
    st.tuples(
        st.sampled_from(["get", "get", "free", "slow", "wait_start", "wait_end"]),
        st.integers(min_value=0, max_value=7),  # task
        st.integers(min_value=0, max_value=len(ResourceType) - 1),
        # Few distinct amounts, so equal usages are common.
        st.sampled_from([1.0, 1.0, 2.0, 4.0]),
    ),
    st.tuples(
        st.sampled_from(["create", "free_cancel", "finish"]),
        st.integers(min_value=0, max_value=7),
    ),
    # Holds opened in one coarse 10 ms stamp tie exactly.
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.003, 0.01, 0.2])),
    st.tuples(st.just("roll")),
)


def _assessment_top_consumer(pbox, resource):
    """pBox's pick as it was: the first task, in live-task order, with
    strictly greater current usage in a full assessment."""
    assessment = pbox.estimator.assess(
        list(pbox.resources.values()), pbox.live_tasks(),
        use_future_gain=False,
    )
    best, best_usage = None, 0.0
    for task_report in assessment.tasks:
        usage = task_report.gain(resource)
        if usage > best_usage and task_report.task.alive:
            best, best_usage = task_report.task, usage
    return best


class TestPBoxVictimChoice:
    @given(ops=st.lists(_pbox_op, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_touched_records_pick_the_assessments_top_consumer(self, ops):
        env = Environment()
        p = tuned(PBox, contention_threshold=0.01)(env)
        resources = [
            p.register_resource(rtype.value, rtype) for rtype in ResourceType
        ]
        slots = [p.create_cancel() for _ in range(8)]
        for op in ops:
            kind = op[0]
            if kind == "advance":
                env.run(until=env.now + op[1])
            elif kind == "roll":
                p.runtime.roll_window()
            elif kind == "create":
                slots[op[1]] = p.create_cancel()
            elif kind == "free_cancel":
                p.free_cancel(slots[op[1]])
            elif kind == "finish":
                slots[op[1]].finish()  # dead but not yet freed
            else:
                task, resource = slots[op[1]], resources[op[2]]
                if kind == "get":
                    p.get_resource(task, resource, op[3])
                elif kind == "free":
                    p.free_resource(task, resource, op[3])
                elif kind == "slow":
                    p.slow_by_resource(task, resource, op[3] / 10, op[3])
                elif kind == "wait_start":
                    p.begin_wait(task, resource)
                else:
                    p.end_wait(task, resource)
        for resource in resources:
            assert p.estimator.top_consumer(
                resource, p.tasks
            ) is _assessment_top_consumer(p, resource)
        # The whole window step, fast against tapped.
        p._maybe_penalize()
        fast = dict(p._penalized)
        p._penalized.clear()
        p.estimator.gain_tap = lambda now, gain: gain
        p._maybe_penalize()
        assert dict(p._penalized) == fast

    def test_equal_usage_goes_to_the_task_created_first(self, env):
        p = PBox(env)
        mem = p.register_resource("pool", ResourceType.MEMORY)
        first, second = p.create_cancel(), p.create_cancel()
        # Touch order is the reverse of creation order.
        p.get_resource(second, mem, 10)
        p.get_resource(first, mem, 10)
        assert p.estimator.top_consumer(mem, p.tasks) is first
