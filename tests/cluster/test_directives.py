"""How one fleet node delivers a coordinator cancel directive.

A :class:`~repro.cluster.node.ClusterNode` sweeps its live, cancellable
tasks of the directive's op in ``live_tasks()`` order, one hop of
``directive_delay`` per task.  A partitioned node queues directives
until it heals; a hop that lands during a partition misses, and the
missed tasks still owed a cancel get exactly one retry pass, one more
delay later.  Each test drives one node through its epoch protocol
(``advance``), so partitions start and heal at epoch edges as in a run.

This module pins deferral, what a sweep skips and the epoch each cancel
is booked in.  Hop order and spacing
are in ``tests/core/test_distributed.py``; missed hops and the retry
pass in ``tests/core/test_distributed_faults.py``.
"""

import pytest

from repro.cluster.directives import QUARANTINE

from .directive_harness import (
    OP,
    cancel_elsewhere,
    make_node,
    run_epochs,
    spawn,
    times,
)


def test_a_partitioned_node_queues_directives_until_it_heals():
    node = make_node(partitions=(("node-0", 0.5, 2.0),))
    _, hits = spawn(node, [100.0] * 3)
    queued = []
    run_epochs(node, until=3.0, queued=queued)
    assert queued == [0, 0, 1, 1, 0, 0]
    # Delivered with the first epoch after the heal, at t=2.0.
    assert times(hits) == [(0, 2.15), (1, 2.30), (2, 2.45)]
    assert node.directive_cancels == 3


def test_finished_or_cancelling_tasks_are_skipped_and_not_counted():
    node = make_node()
    # Task 0 finishes before its hop (1.15); task 1 is being cancelled
    # by another path when its hop lands (1.30).
    tasks, hits = spawn(node, [1.1, 100.0, 100.0], unwind=1.0)
    cancel_elsewhere(node, 1.2, tasks, 1)
    run_epochs(node, until=3.0)
    assert [(i, pytest.approx(at), r) for i, at, r in hits] == [
        (1, 1.2, "other-path"),
        (2, 1.45, "cluster-directive:fanout_scan"),
    ]
    assert node.directive_cancels == 1
    assert node.directive_cancelled_ops == [OP]


def test_missed_tasks_that_finished_or_are_cancelling_are_not_retried():
    # Hops to tasks 3, 4, 5 miss (1.60, 1.75, 1.90).  Task 3 then
    # finishes and task 4 is cancelled elsewhere before the pass ends,
    # so the retry pass hops to task 5 alone, at 2.05 + 0.15.
    node = make_node(partitions=(("node-0", 1.5, 2.0),))
    lifetimes = [100.0, 100.0, 100.0, 1.7, 100.0, 100.0]
    tasks, hits = spawn(node, lifetimes, unwind=1.0)
    cancel_elsewhere(node, 1.8, tasks, 4)
    run_epochs(node, until=4.0)
    assert [(i, pytest.approx(at), r) for i, at, r in hits[3:]] == [
        (4, 1.8, "other-path"),
        (5, 2.20, "cluster-directive:fanout_scan"),
    ]
    assert node.directive_cancels == 4


def test_a_task_that_finishes_during_the_retry_wait_gets_no_hop():
    # Task 3 misses at 1.60 and finishes at 1.95, inside the retry wait
    # (1.90 -> 2.05): the retry pass is filtered after the wait, so
    # tasks 4 and 5 take the first two retry hops.
    node = make_node(partitions=(("node-0", 1.5, 2.0),))
    _, hits = spawn(node, [100.0, 100.0, 100.0, 1.95, 100.0, 100.0])
    run_epochs(node, until=4.0)
    assert times(hits)[3:] == [(4, 2.20), (5, 2.35)]
    assert node.directive_cancels == 5


def test_each_directive_cancel_is_booked_in_the_epoch_it_happens():
    # The first pass cancels at 1.15, 1.30 and 1.45, then misses three
    # hops once the partition starts at 1.5; the retry pass cancels at
    # 2.20, 2.35 and 2.50.  Each cancel counts in the window its hop
    # lands in, not in the one where its pass ends (1.90).
    node = make_node(partitions=(("node-0", 1.5, 2.0),))
    spawn(node, [100.0] * 6)
    statuses = run_epochs(node, until=3.0)
    assert [s.directive_cancels_window for s in statuses] == [
        0, 0, 3, 0, 3, 0,
    ]
    assert node.directive_cancels == 6


def test_a_quarantine_directive_cancels_nothing():
    node = make_node()
    _, hits = spawn(node, [100.0] * 3)
    queued = []
    run_epochs(node, until=3.0, kind=QUARANTINE, queued=queued)
    assert hits == []
    assert node.directive_cancels == 0
    assert queued == [0] * 6
