"""Guard on how many request records a fleet or mesh node keeps: one
epoch's, never the whole run's.

``EpochNode.advance`` takes its epoch's records out of the node's
collector (``MetricsCollector.take``), hands them to the status hook
and folds them into the end-of-run summary (``SummaryFold``), so a
node's memory does not grow with the run's length.

Deterministic: record counts at a fixed seed (``gc.get_objects``),
never a clock or an RSS reading.
"""

import gc

import pytest

from repro.cluster import Fleet, Mesh, demo_fleet
from repro.sim.metrics import RequestRecord
from repro.workloads.dag import dag_storm


def _live_records():
    return sum(1 for obj in gc.get_objects() if type(obj) is RequestRecord)


def _watch(placement, after_advance):
    """Call ``after_advance(statuses)`` after each epoch's ``advance``."""
    advance = placement.advance

    def watched(epoch, t_end, plan):
        statuses = advance(epoch, t_end, plan)
        after_advance(statuses)
        return statuses

    placement.advance = watched
    return placement


PLACEMENTS = {
    "fleet": lambda: Fleet(demo_fleet(n_nodes=3, duration=3, warmup=1)),
    "mesh": lambda: Mesh(
        dag_storm(n_leaves=2, duration=3, warmup=1), "atropos"
    ),
}


@pytest.mark.parametrize("tier", sorted(PLACEMENTS))
def test_a_node_holds_no_records_after_any_advance(tier):
    placement = PLACEMENTS[tier]()
    held = []
    _watch(placement, lambda statuses: held.append(
        sum(len(node.collector.records) for node in placement.nodes)
    ))
    result = placement.run()
    assert held and set(held) == {0}
    # Records did flow: the report is read from the folded windows.
    reports = getattr(result, result._reports)
    assert sum(report["completed"] for report in reports) > 0


def _mesh_retention(duration):
    """(most live records after any epoch, most records one epoch made,
    records made in all)."""
    spec = dag_storm(n_leaves=2, duration=duration, warmup=1)
    placement = Mesh(spec, "atropos")
    live, made = [], []

    def count(statuses):
        made.append(sum(len(s.shard_results) for s in statuses))
        live.append(_live_records())

    _watch(placement, count)
    placement.run()
    return max(live), max(made), sum(made)


@pytest.mark.parametrize("duration", [4.0, 8.0])
def test_a_mesh_keeps_no_more_than_one_epoch_of_records(duration):
    # Twice the run makes twice the records, and keeps no more.
    live, one_epoch, total = _mesh_retention(duration)
    assert total > 10 * one_epoch
    assert live <= one_epoch
