"""Tests for the Breakwater baseline (credit-based admission)."""

import pytest

from repro.apps.base import Operation
from repro.apps.mysql import MySQL, light_mix
from repro.baselines import Breakwater, controller_factory
from repro.experiments import run_simulation
from repro.sim import Environment, RequestRecord, RequestStatus
from repro.workloads import OpenLoopSource, ScheduledOp, Workload

from .tuned import tuned


@pytest.fixture
def env():
    return Environment()


def feed(bw, n, latency):
    for i in range(n):
        finish = i * 0.001
        bw.observe_completion(
            RequestRecord(
                i, "op", "c", finish - latency, finish,
                RequestStatus.COMPLETED,
            )
        )


class TestCreditPool:
    def test_credits_shrink_on_delay_violation(self, env):
        bw = tuned(Breakwater, adjust_period=0.1, initial_credits=100)(
            env, target_delay=0.01
        )
        bw.start()
        feed(bw, 30, latency=0.5)
        env.run(until=0.35)
        assert bw.credits < 100

    def test_credits_grow_when_healthy(self, env):
        bw = tuned(Breakwater, adjust_period=0.1, initial_credits=10)(
            env, target_delay=0.5
        )
        bw.start()
        feed(bw, 30, latency=0.001)
        env.run(until=0.55)
        assert bw.credits > 10

    def test_credits_bounded(self, env):
        bw = tuned(
            Breakwater, adjust_period=0.05, initial_credits=8, min_credits=4
        )(env, target_delay=0.01)
        bw.start()
        feed(bw, 50, latency=1.0)
        env.run(until=5.0)
        assert bw.credits >= 4

    def test_admission_limited_by_inflight_vs_credits(self, env):
        bw = tuned(Breakwater, initial_credits=2, overcommit=1.0)(env)
        assert bw.admit("op", "c")
        bw.create_cancel()
        bw.create_cancel()
        assert not bw.admit("op", "c")
        assert bw.rejections == 1

    def test_free_cancel_returns_credit(self, env):
        bw = tuned(Breakwater, initial_credits=1, overcommit=1.0)(env)
        task = bw.create_cancel()
        assert not bw.admit("op", "c")
        bw.free_cancel(task)
        assert bw.admit("op", "c")


class TestEndToEnd:
    def test_sheds_demand_overload(self):
        """Demand overload: Breakwater keeps served latency near target."""

        def workload(app, rng):
            return Workload(
                [OpenLoopSource(rate=3500.0, mix=light_mix(rng))]
            )

        uncontrolled = run_simulation(
            lambda env, c, rng: MySQL(env, c, rng), workload,
            duration=8.0, warmup=2.0,
        )
        controlled = run_simulation(
            lambda env, c, rng: MySQL(env, c, rng),
            workload,
            controller_factory=controller_factory("breakwater", 0.02),
            duration=8.0,
            warmup=2.0,
        )
        assert controlled.drop_rate > 0.1  # load shed at admission
        assert controlled.p99_latency < uncontrolled.p99_latency / 2

    def test_indiscriminate_against_resource_overload(self):
        """The paper's critique: the global delay signal cannot find the
        culprit, so Breakwater sheds victims while the convoy persists."""
        from repro.cases import get_case

        case = get_case("c1")
        baseline = case.run_baseline()
        bw = case.run(
            controller_factory=controller_factory(
                "breakwater", case.slo_latency
            )
        )
        atropos = case.run(
            controller_factory=controller_factory(
                "atropos", case.slo_latency
            )
        )
        # Breakwater loses throughput and/or drops victims...
        assert (
            bw.throughput < baseline.throughput * 0.9
            or bw.drop_rate > 0.05
        )
        # ...while Atropos keeps both good.
        assert atropos.throughput > baseline.throughput * 0.9
        assert atropos.drop_rate < 0.01
