"""Failure paths of distributed cancellation: a fleet node partitioned
while its cancel sweep is under way.

Complements ``test_distributed.py``.  A hop that lands during a
partition misses; the missed tasks still owed a cancel get exactly one
retry pass, one ``directive_delay`` after the first pass ends, in the
first pass's order.
"""

import pytest

from ..cluster.directive_harness import make_node, run_epochs, spawn, times

#: Partitioned from the 1.5 s epoch edge to the 2.0 s one.
PARTITION = (("node-0", 1.5, 2.0),)


def test_partitioned_child_misses_signal():
    # Task 3's hop lands at 1.60, inside the partition: the task runs on
    # untouched, neither interrupted nor marked as cancelling.
    node = make_node(partitions=PARTITION)
    tasks, hits = spawn(node, [100.0] * 4)
    run_epochs(node, until=1.5 + 0.5)
    assert 3 not in [index for index, _, _ in hits]
    assert tasks[3].alive
    assert tasks[3].cancel_count == 0
    assert node.directive_cancels == 3


def test_retry_after_heal_delivers():
    # Tasks 3 and 4 miss (1.60, 1.75); the retry pass starts at 1.90
    # and its hops land after the heal, at 2.05 and 2.20.
    node = make_node(partitions=PARTITION)
    tasks, hits = spawn(node, [100.0] * 5)
    run_epochs(node, until=3.0)
    assert [(i, pytest.approx(at), r) for i, at, r in hits[3:]] == [
        (3, 2.05, "cluster-directive:fanout_scan"),
        (4, 2.20, "cluster-directive:fanout_scan"),
    ]
    assert not tasks[3].alive and not tasks[4].alive
    assert node.directive_cancels == 5


def test_retry_while_still_down_fails_again():
    # Task 3 misses at 1.60; its retry hop (1.75 + 0.15 = 1.90) lands
    # before the heal and misses too.
    node = make_node(partitions=PARTITION)
    tasks, hits = spawn(node, [100.0] * 4)
    run_epochs(node, until=2.0)
    assert times(hits) == [(0, 1.15), (1, 1.30), (2, 1.45)]
    assert tasks[3].alive and tasks[3].cancel_count == 0


def test_repeated_failed_retries_do_not_multiply_attempts():
    # After its retry hop misses at 1.90, the heal at 2.0 brings task 3
    # no third attempt, however long the node runs on.
    node = make_node(partitions=PARTITION)
    tasks, hits = spawn(node, [100.0] * 4)
    run_epochs(node, until=5.0)
    assert times(hits) == [(0, 1.15), (1, 1.30), (2, 1.45)]
    assert tasks[3].alive and tasks[3].cancel_count == 0
    assert node.directive_cancels == 3


def test_retry_preserves_registration_order_and_hop_delays():
    # Misses at 1.60, 1.75, 1.90; the retry pass waits to 2.05 and hops
    # again 0.15 s apart, in the order the tasks were registered.
    node = make_node(partitions=PARTITION)
    _, hits = spawn(node, [100.0] * 6)
    run_epochs(node, until=4.0)
    assert times(hits) == [
        (0, 1.15), (1, 1.30), (2, 1.45), (3, 2.20), (4, 2.35), (5, 2.50),
    ]
    assert node.directive_cancels == 6
