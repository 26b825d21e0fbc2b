"""Unit tests for the mitigation-lever registry and Atropos wiring."""

import pytest

from repro.core import Atropos, AtroposConfig
from repro.core.levers import (
    LEVERS,
    CancelLever,
    CompositeLever,
    LockScheduleLever,
    resolve_lever,
)
from repro.core.types import ResourceType
from repro.sim import Environment, Rng
from repro.sim.resources import SyncLock, ThreadPool

from ..apps.stub import BACKENDS, StubApp


class TestRegistry:
    def test_known_levers(self):
        assert list(LEVERS) == ["cancel", "lock_reshape", "composite"]
        assert resolve_lever("cancel") is CancelLever
        assert resolve_lever("lock_reshape") is LockScheduleLever
        assert resolve_lever("composite") is CompositeLever

    def test_unknown_lever_names_the_known_ones(self):
        with pytest.raises(KeyError, match="cancel, lock_reshape, composite"):
            resolve_lever("nuke")

    def test_config_rejects_unknown_lever(self):
        with pytest.raises(ValueError, match="lever must be one of"):
            AtroposConfig(lever="nuke")


class TestAtroposWiring:
    def test_default_lever_is_cancel(self):
        controller = Atropos(Environment())
        assert type(controller.lever) is CancelLever
        assert controller.pipeline.action is controller.lever

    @pytest.mark.parametrize(
        "name,cls",
        [("lock_reshape", LockScheduleLever), ("composite", CompositeLever)],
    )
    def test_config_selects_lever(self, name, cls):
        controller = Atropos(Environment(), AtroposConfig(lever=name))
        assert type(controller.lever) is cls


class TestLockDiscovery:
    def test_bind_discovers_locks_including_lists(self):
        env = Environment()
        controller = Atropos(env, AtroposConfig(lever="lock_reshape"))
        lever = controller.lever
        assert lever._locks == {}  # unbound: nothing to park on

        app = StubApp(
            env,
            controller,
            # Handle and sim names deliberately share nothing (mysql's
            # undo_log is the sim mysql.undo_latch).
            undo_log=SyncLock(env, "app.latch"),
            table_lock=[
                SyncLock(env, "app.table_lock.0"),
                SyncLock(env, "app.table_lock.1"),
            ],
            queue=ThreadPool(env, "app.queue", workers=2),
        )
        controller.bind(app)

        def names(handle):
            return [lock.name for lock in lever._app_locks(handle)]

        assert list(lever._locks) == [
            app.handles["undo_log"], app.handles["table_lock"],
        ]
        assert names(app.handles["table_lock"]) == [
            "app.table_lock.0", "app.table_lock.1",
        ]
        assert names(app.handles["undo_log"]) == ["app.latch"]
        assert names(app.handles["queue"]) == []
        foreign = controller.register_resource("elsewhere", ResourceType.LOCK)
        assert names(foreign) == []

    @pytest.mark.parametrize("app_type", BACKENDS)
    def test_every_lock_handle_resolves_to_a_lock(self, app_type):
        """The lever can park on every LOCK resource of every backend
        (four handles resolved to nothing while the lookup matched
        handle names against sim names)."""
        env = Environment()
        controller = Atropos(env, AtroposConfig(lever="lock_reshape"))
        app = app_type(env, controller, Rng(0))
        controller.bind(app)
        for handle in controller.resources.values():
            if handle.rtype is ResourceType.LOCK:
                assert controller.lever._app_locks(handle), handle.name
