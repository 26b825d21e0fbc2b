"""Tests for the DAGOR and Autothrottle baselines."""

import zlib

import pytest

from repro.baselines.autothrottle import Autothrottle, AutothrottleTower
from repro.baselines.dagor import (
    BUSINESS_LEVELS,
    Dagor,
    compound_priority,
    user_level,
)
from repro.sim import Environment, RequestRecord, RequestStatus
from repro.sim.resources import ThreadPool

from ..apps.stub import StubApp
from .tuned import tuned


@pytest.fixture
def env():
    return Environment()


def feed(controller, n, latency, start=0.0):
    for i in range(n):
        finish = start + i * 0.001
        controller.observe_completion(
            RequestRecord(
                i, "op", "c", finish - latency, finish,
                RequestStatus.COMPLETED,
            )
        )


class TestCompoundPriority:
    def test_user_level_is_crc32_not_hash(self):
        assert user_level("alice", 8) == zlib.crc32(b"alice") % 8

    def test_shard_suffix_stripped(self):
        # The mesh encodes shard identity after a "|"; the user hash
        # must only see the true client so shedding is consistent.
        assert user_level("alice|42:1:0", 8) == user_level("alice", 8)

    def test_business_class_dominates_user_level(self):
        light = compound_priority("point", "anyone")
        heavy = compound_priority("scan", "anyone")
        assert light < 8
        assert heavy >= 3 * 8

    def test_unknown_op_gets_default_priority(self):
        assert compound_priority("mystery_op", "c") // 8 == 2


class TestDagorConvergence:
    def test_level_settles_at_min_under_steady_overload(self, env):
        d = tuned(Dagor, adjust_period=0.1)(env, slo_latency=0.01)
        d.start()
        assert d.level == d.max_level
        # Steady overload: every window's tail breaches the SLO.
        for window in range(12):
            feed(d, 20, latency=0.5, start=window * 0.1)
        env.run(until=1.25)
        assert d.level == d.min_level == d.user_levels - 1
        # The floor still admits the whole most-critical business class.
        assert d.admit("point", "any-client")

    def test_level_recovers_one_step_per_healthy_window(self, env):
        d = tuned(Dagor, adjust_period=0.1)(env, slo_latency=0.01)
        d.start()
        feed(d, 20, latency=0.5)
        env.run(until=0.15)
        lowered = d.level
        assert lowered < d.max_level
        # The slow records stay in the 1 s sliding window until ~1.02,
        # so the level keeps falling to its floor first.
        env.run(until=1.05)
        floored = d.level
        assert floored == d.min_level
        # Five healthy windows later it has probed up exactly
        # grow_step per window.
        env.run(until=1.55)
        assert d.level == floored + 5 * d.grow_step

    def test_admission_sheds_heavy_before_light(self, env):
        d = tuned(Dagor, adjust_period=0.1)(env, slo_latency=0.01)
        d.level = d.user_levels - 1  # floor: only business class 0
        assert d.admit("point", "client-1")
        assert not d.admit("scan", "client-1")
        assert d.rejections == 1

    def test_feedback_snapshot_updates_at_window_edge(self, env):
        d = tuned(Dagor, adjust_period=0.1)(env, slo_latency=0.01)
        d.start()
        feed(d, 20, latency=0.5)
        env.run(until=0.15)
        assert d.admit_level == d.level
        assert d.feedback_history
        times = [t for t, _level in d.feedback_history]
        assert times == sorted(times)


class _PoolApp(StubApp):
    """Minimal app registering a worker pool (and a narrower one)."""

    def __init__(self, env, workers=32):
        self.narrow = ThreadPool(env, "stub.narrow", workers=2)
        self.workers = ThreadPool(env, "stub.workers", workers=workers)
        super().__init__(env, narrow=self.narrow, workers=self.workers)


class TestAutothrottle:
    def test_bind_finds_widest_pool(self, env):
        at = Autothrottle(env, slo_latency=0.05)
        app = _PoolApp(env, workers=32)
        at.bind(app)
        assert at.pool is app.workers
        assert at.nominal_workers == 32

    def test_pool_shrinks_under_overload_and_recovers(self, env):
        at = tuned(Autothrottle, adjust_period=0.1)(env, slo_latency=0.01)
        app = _PoolApp(env, workers=32)
        at.bind(app)
        at.start()
        feed(at, 20, latency=0.5)
        env.run(until=0.15)
        squeezed = app.workers.workers
        assert squeezed < 32
        assert at.resize_moves >= 1
        # The slow records stay in the 1 s sliding window until ~1.02,
        # so the pool keeps shrinking toward its floor first; healthy
        # windows then recover additively toward nominal.
        env.run(until=1.05)
        floored = app.workers.workers
        env.run(until=2.0)
        assert app.workers.workers > floored

    def test_poolless_backend_uses_checkpoint_squeeze(self, env):
        at = tuned(Autothrottle, adjust_period=0.1)(env, slo_latency=0.01)
        at.start()  # never bound: no pool to resize
        assert at.throttle_delay(None) == 0.0
        feed(at, 20, latency=0.5)
        env.run(until=0.15)
        assert at.throttle_delay(None) > 0.0
        env.run(until=2.5)  # healthy windows decay the squeeze away
        assert at.throttle_delay(None) == 0.0

    def test_set_target_clamps_and_counts(self, env):
        at = Autothrottle(env, slo_latency=0.05)
        at.set_target(0.02)
        assert at.target == pytest.approx(0.02)
        at.set_target(-1.0)
        assert at.target > 0.0
        assert at.target_moves == 2


class TestAutothrottleTower:
    def test_violation_tightens_worst_service_only(self):
        tower = AutothrottleTower(["a", "b"], slo_latency=0.1)
        before = dict(tower.targets)
        tower.update(epoch=1, t=1.0, e2e_p99=1.0,
                     service_p99={"a": 0.02, "b": 0.9})
        assert tower.targets["b"] < before["b"]
        assert tower.targets["a"] == pytest.approx(before["a"])
        assert tower.moves and tower.moves[-1]["service"] == "b"

    def test_healthy_epochs_relax_all_targets(self):
        tower = AutothrottleTower(["a", "b"], slo_latency=0.1)
        tower.update(epoch=1, t=1.0, e2e_p99=1.0,
                     service_p99={"a": 0.02, "b": 0.9})
        tightened = dict(tower.targets)
        tower.update(epoch=2, t=2.0, e2e_p99=0.01,
                     service_p99={"a": 0.01, "b": 0.01})
        assert tower.targets["b"] > tightened["b"]

    def test_targets_stay_within_floor_and_cap(self):
        tower = AutothrottleTower(["a"], slo_latency=0.1)
        for epoch in range(50):
            tower.update(epoch=epoch, t=float(epoch), e2e_p99=9.9,
                         service_p99={"a": 9.9})
        assert tower.targets["a"] >= 0.05 * 0.1 - 1e-12
        for epoch in range(50, 150):
            tower.update(epoch=epoch, t=float(epoch), e2e_p99=0.0,
                         service_p99={"a": 0.0})
        assert tower.targets["a"] <= 0.1 + 1e-12
