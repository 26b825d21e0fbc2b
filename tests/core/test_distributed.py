"""Distributed cancellation (paper §4): a coordinator cancel directive
reaching every task of its op on a fleet node.

The node sweeps its live, cancellable tasks of the op in ``live_tasks()``
order, paying one ``directive_delay`` hop per task.  Here, the sweep on a
reachable node, and what a partition does to it; the failure paths in
detail are in ``test_distributed_faults.py``.
"""

from ..cluster.directive_harness import OP, make_node, run_epochs, spawn, times


def test_cancel_propagates_to_all_children():
    node = make_node()
    tasks, hits = spawn(node, [100.0] * 3)
    _, bystander = spawn(node, [100.0], op="point")
    run_epochs(node, until=3.0)
    assert sorted(index for index, _, _ in hits) == [0, 1, 2]
    assert {reason for _, _, reason in hits} == {
        "cluster-directive:fanout_scan"
    }
    assert not any(task.alive for task in tasks.values())
    # A task of another op is not the directive's.
    assert bystander == []
    assert node.directive_cancels == 3
    assert node.directive_cancelled_ops == [OP] * 3


def test_propagation_pays_per_hop_delay():
    # The directive lands at t=1.0; hops go out 0.15 s apart, in the
    # order the tasks were registered.
    node = make_node()
    _, hits = spawn(node, [100.0] * 3)
    run_epochs(node, until=3.0)
    assert times(hits) == [(0, 1.15), (1, 1.30), (2, 1.45)]


def test_partitioned_node_misses_signal():
    # Hops at 1.15, 1.30, 1.45 land; the partition starts at the 1.5
    # epoch edge, so 1.60, 1.75, 1.90 miss.  At 2.0 the retry pass has
    # not yet hopped.
    node = make_node(partitions=(("node-0", 1.5, 2.0),))
    tasks, hits = spawn(node, [100.0] * 6)
    run_epochs(node, until=2.0)
    assert times(hits) == [(0, 1.15), (1, 1.30), (2, 1.45)]
    assert [tasks[i].alive for i in range(6)] == [False] * 3 + [True] * 3
    assert node.directive_cancels == 3
    # The directive was delivered, not queued: the misses are hops.
    assert node.pending_directives == []


def test_retry_after_heal_completes_cancellation():
    # The retry pass waits one more delay after the last miss (to 2.05,
    # healed) and reaches every task the first pass missed.
    node = make_node(partitions=(("node-0", 1.5, 2.0),))
    tasks, hits = spawn(node, [100.0] * 6)
    run_epochs(node, until=4.0)
    assert sorted(index for index, _, _ in hits) == list(range(6))
    assert {reason for _, _, reason in hits} == {
        "cluster-directive:fanout_scan"
    }
    assert not any(task.alive for task in tasks.values())
    assert node.directive_cancels == 6
    assert node.directive_cancelled_ops == [OP] * 6
