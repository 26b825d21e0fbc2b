"""The resource registry is complete: what an application builds, it
registers.

``Application.register_resource(name, rtype, *sims)`` is the one place an
application says which sim objects stand behind a controller handle; the
scraper, the fault injector, DARC, Autothrottle and the lock-reshape
lever all read ``app.resources()``.  A resource built but not registered
would be invisible to every one of them, so this module keeps the walk
over ``vars(app)`` those consumers used to do -- as the reference the
registry is checked against, and nowhere else.
"""

import importlib.util
import pathlib

import pytest

from repro.core import NullController, ResourceType
from repro.sim import Environment, Rng
from repro.sim.resources import SyncLock

from .stub import BACKENDS, StubApp
from .test_base import TinyApp

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _job_server():
    spec = importlib.util.spec_from_file_location(
        "custom_app", EXAMPLES / "custom_app.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JobServer


def reachable_resources(app):
    """Reference walk: every attribute of ``app``, one level into lists
    and tuples, that can be scraped."""
    found = []
    for value in vars(app).values():
        for obj in value if isinstance(value, (list, tuple)) else [value]:
            if obj is not app.controller and callable(
                getattr(obj, "telemetry_snapshot", None)
            ):
                found.append(obj)
    return found


@pytest.mark.parametrize(
    "app_type", [*BACKENDS, _job_server()], ids=lambda cls: cls.name
)
def test_every_reachable_resource_is_registered_exactly_once(app_type):
    env = Environment()
    app = app_type(env, NullController(env), Rng(0))
    registered = app.resources()
    assert len({id(sim) for sim in registered}) == len(registered)
    assert sorted(map(id, registered)) == sorted(
        map(id, reachable_resources(app))
    )
    names = [sim.name for sim in registered]
    assert len(set(names)) == len(names), "resource names must be unique"


@pytest.mark.parametrize("app_type", BACKENDS, ids=lambda cls: cls.name)
def test_handles_partition_the_registry(app_type):
    env = Environment()
    controller = NullController(env)
    app = app_type(env, controller, Rng(0))
    by_handle = [
        sim
        for handle in controller.resources.values()
        for sim in app.resources(handle)
    ]
    assert by_handle == app.resources()
    assert all(app.resources(h) for h in controller.resources.values())


def test_register_resource_without_a_sim_object_raises():
    env = Environment()
    app = StubApp(env)
    with pytest.raises(TypeError, match="stub.orphan.*sim object"):
        app.register_resource("orphan", ResourceType.LOCK)
    assert app.resources() == []
    assert "stub.orphan" not in app.controller.resources


def test_registration_order_and_foreign_handles():
    env = Environment()
    app = TinyApp(env, NullController(env), Rng(0))
    assert app.resources() == [app.lock, app.pool]
    assert app.resources(app.r_lock) == [app.lock]
    other = StubApp(env, latch=SyncLock(env, "stub.latch"))
    assert app.resources(other.handles["latch"]) == []
