"""Tests for the Protego baseline (victim dropping on blocking delay)."""

import pytest

from repro.baselines import Protego
from repro.cases import get_case
from repro.core import ResourceHandle, ResourceType
from repro.sim import Environment, RequestStatus

from .tuned import tuned


@pytest.fixture
def env():
    return Environment()


LOCK = None  # assigned per test via register_resource


class TestWaitTracking:
    def test_closed_wait_accumulates(self, env):
        p = Protego(env)
        lock = p.register_resource("l", ResourceType.LOCK)
        task = p.create_cancel()
        p.begin_wait(task, lock)
        env.run(until=0.03)
        assert p.end_wait(task, lock) == pytest.approx(0.03)
        assert p.blocking_delay(task) == pytest.approx(0.03)

    def test_open_wait_counts_live(self, env):
        p = Protego(env)
        lock = p.register_resource("l", ResourceType.LOCK)
        task = p.create_cancel()
        p.begin_wait(task, lock)
        env.run(until=0.05)
        assert p.blocking_delay(task) == pytest.approx(0.05)

    def test_memory_waits_ignored(self, env):
        p = Protego(env)
        mem = p.register_resource("m", ResourceType.MEMORY)
        task = p.create_cancel()
        p.begin_wait(task, mem)
        env.run(until=0.05)
        assert p.blocking_delay(task) == 0.0

    def test_slow_by_counts_for_waitable(self, env):
        p = Protego(env)
        cpu = p.register_resource("c", ResourceType.CPU)
        mem = p.register_resource("m", ResourceType.MEMORY)
        task = p.create_cancel()
        p.slow_by_resource(task, cpu, 0.02)
        p.slow_by_resource(task, mem, 0.5)
        assert p.blocking_delay(task) == pytest.approx(0.02)

    def test_should_drop_over_budget(self, env):
        p = tuned(Protego, drop_fraction=0.8)(env, slo_latency=0.05)
        lock = p.register_resource("l", ResourceType.LOCK)
        task = p.create_cancel()
        p.slow_by_resource(task, lock, 0.05)
        assert p.should_drop(task)

    def test_free_cancel_clears_state(self, env):
        p = Protego(env)
        lock = p.register_resource("l", ResourceType.LOCK)
        task = p.create_cancel()
        p.begin_wait(task, lock)
        p.free_cancel(task)
        assert p.blocking_delay(task) == 0.0


class TestEndToEnd:
    def test_bounds_latency_but_drops_victims_in_c1(self):
        """Fig 4's story: Protego bounds p99 by dropping many requests."""
        case = get_case("c1")
        base = case.run_baseline()
        overload = case.run()
        protego = case.run(
            controller_factory=lambda env: Protego(
                env, slo_latency=case.slo_latency
            )
        )
        # Tail latency is far better than uncontrolled...
        assert protego.p99_latency < overload.p99_latency / 10
        # ...but the drop rate is orders of magnitude above ATROPOS's.
        assert protego.drop_rate > 0.05
        counts = protego.collector.status_counts()
        assert counts[RequestStatus.DROPPED] > 100

    def test_worse_than_atropos_on_memory_case_c5(self):
        """Protego does not monitor memory resources (Fig 9's gap): it
        can only shed queue-wait victims, never cancel the dump, so it
        lands far from ATROPOS on both latency and drops."""
        from repro.baselines import controller_factory

        case = get_case("c5")
        protego = case.run(
            controller_factory=lambda env: Protego(
                env, slo_latency=case.slo_latency
            )
        )
        atropos = case.run(
            controller_factory=controller_factory("atropos", case.slo_latency)
        )
        assert protego.p99_latency > atropos.p99_latency * 2
        assert protego.drop_rate > atropos.drop_rate * 10
