"""Guard on what a fleet or mesh run leaves once its result is dropped:
nothing, as for a single-node run (``tests/core/test_run_release.py``).

Every node is assembled like any other run
(:func:`repro.experiments.harness.assemble`), its op aliases take the
application as an argument instead of closing over it, and
``EpochNode.finish`` closes the node's environment once the report is
built.  So a finished fleet or mesh is freed by reference counting as
soon as its placement and result are dropped.

Each check runs the serial placement (:class:`~repro.cluster.Fleet` /
:class:`~repro.cluster.Mesh`, what ``jobs=1`` runs) with the collector
paused, watches every node's environment, driver, controller,
application and collector, and drops the placement and the result: the
nodes must be gone at once, and one collection may name no run part.
"""

import pytest

from repro.cluster import Fleet, Mesh, demo_fleet
from repro.workloads.dag import DAG_CONTROLLERS, dag_storm

from ..core.test_run_release import left_behind


def _node_parts(placement):
    return [
        part
        for node in placement.nodes
        for part in (
            node.env, node.driver, node.controller, node.app, node.collector,
        )
    ]


def _run(build):
    """A ``left_behind`` run: the placement lives only inside it."""

    def run():
        placement = build()
        parts = _node_parts(placement)
        return placement.run(), parts

    return run


@pytest.mark.parametrize("mode", ["none", "local", "coordinated"])
def test_a_dropped_fleet_leaves_no_cyclic_garbage(mode):
    spec = demo_fleet(n_nodes=3, duration=3.0, warmup=1.0, mode=mode)
    assert left_behind(_run(lambda: Fleet(spec))) == []


@pytest.mark.parametrize("controller", DAG_CONTROLLERS)
def test_a_dropped_mesh_leaves_no_cyclic_garbage(controller):
    spec = dag_storm(n_leaves=2, duration=4.0, warmup=1.0)
    assert left_behind(_run(lambda: Mesh(spec, controller))) == []


def test_a_finished_node_is_closed():
    fleet = Fleet(demo_fleet(n_nodes=2, duration=3.0, warmup=1.0))
    fleet.run()
    for node in fleet.nodes:
        env = node.env
        assert env.alive_processes == 0 and env.queue_depth == 0
        assert node.driver.inflight == 0
        assert env.events_scheduled > 0
