"""The one epoch runtime under both tiers (``repro.cluster.epoch``).

What the fleet and the mesh share is tested once, for both: the
serial-or-sharded rule under a daemonic caller, a failing shard
surfacing by name instead of hanging or as a bare ``EOFError``, and
result payloads that do not mutate what they describe.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.apps.base import Operation
from repro.cluster import (
    ClusterNode,
    ServiceNode,
    ShardError,
    demo_fleet,
    run_dag,
    run_fleet,
)
from repro.workloads.dag import dag_storm

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded path requires the fork start method",
)


def fleet(jobs):
    return run_fleet(demo_fleet(n_nodes=3, duration=3, warmup=1), jobs=jobs)


def mesh(jobs):
    return run_dag(dag_storm(n_leaves=2, duration=3, warmup=1), jobs=jobs)


def _digests(jobs):
    return fleet(jobs).digest(), mesh(jobs).digest()


@needs_fork
def test_daemonic_caller_falls_back_to_serial_in_both_tiers():
    # A campaign pool worker is daemonic and may not fork shard workers.
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(_digests, (2,)).get(timeout=120)
    assert inside == _digests(1)


#: tier -> (node class, a node that shares its shard at jobs=2, runner)
TIERS = {
    "fleet": (ClusterNode, "node-2", fleet),
    "mesh": (ServiceNode, "leaf-1", mesh),
}


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "exits"])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_failing_shard_is_a_named_error(monkeypatch, tier, failure):
    node_type, victim, run = TIERS[tier]
    healthy = node_type.advance

    def advance(self, epoch, *args):
        if self.name == victim and epoch == 3:
            if failure == "exits":
                os._exit(9)
            raise RuntimeError("injected fault")
        return healthy(self, epoch, *args)

    monkeypatch.setattr(node_type, "advance", advance)
    started = time.monotonic()
    with pytest.raises(ShardError) as caught:
        run(2)
    assert time.monotonic() - started < 30
    error = caught.value
    assert (error.shard, error.epoch) == (0, 3)
    assert victim in error.nodes and victim in str(error)
    expected = (
        "exit code 9" if failure == "exits"
        else f"node {victim} raised"
    )
    assert expected in str(error)
    if failure == "raises":
        assert "RuntimeError: injected fault" in str(error)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("run", [fleet, mesh])
def test_to_dict_leaves_the_result_untouched(run):
    result = run(1)
    before = repr(result)
    digest = result.digest()
    payload = json.dumps(result.to_dict(), sort_keys=True)
    assert repr(result) == before
    assert json.dumps(result.to_dict(), sort_keys=True) == payload
    assert result.digest() == digest


@pytest.mark.parametrize(
    "backend, native",
    [
        ("mysql", {"point": "point_select", "write": "row_update",
                   "scan": "scan"}),
        ("postgres", {"point": "select", "write": "update",
                      "scan": "vacuum"}),
    ],
)
def test_node_ops_run_the_native_generators(backend, native):
    """An alias hands back the backend handler's own generator: no
    pass-through level for a request to resume through on every event."""
    spec = dag_storm(n_leaves=2, duration=3, warmup=1)
    service = next(s for s in spec.services if s.backend == backend)
    node = ServiceNode(spec, service, spec.services.index(service), "none")
    app = node.app
    params = {"point": {"table": 1}, "write": {"table": 1},
              "scan": {"rows": 10.0}}
    for op, name in native.items():
        task = app.controller.create_cancel()
        gen = app.execute(task, Operation(op, params[op]))
        assert gen.gi_code is getattr(type(app), name).__code__, op
        gen.close()
