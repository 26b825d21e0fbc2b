"""Drive one fleet node through its epoch protocol with a cancel
directive in flight.

A :class:`~repro.cluster.node.ClusterNode` sweeps its live, cancellable
tasks of the directive's op in ``live_tasks()`` order, one hop of
``directive_delay`` per task.  These helpers start tasks on one node and
advance it epoch by epoch (``advance``), so partitions start and heal at
epoch edges as in a run, and one directive for :data:`OP` arrives with
epoch :data:`DIRECTIVE_EPOCH` (t = 1.0).
"""

import pytest

from repro.cluster.directives import CANCEL, Directive
from repro.cluster.node import ClusterNode
from repro.cluster.spec import FleetSpec, NodeSpec
from repro.core import CancelSignal
from repro.core.task import default_initiator
from repro.sim import Interrupt

OP = "fanout_scan"
EPOCH = 0.5
DELAY = 0.15
#: The directive reaches the node at the start of epoch 2.
DIRECTIVE_EPOCH = 2


def make_node(partitions=()):
    spec = FleetSpec(
        nodes=[NodeSpec("node-0")],
        duration=10.0,
        warmup=0.0,
        epoch=EPOCH,
        directive_delay=DELAY,
        partitions=partitions,
    )
    return ClusterNode(spec, spec.nodes[0], 0)


def spawn(node, lifetimes, op=OP, unwind=0.0):
    """Start one task per lifetime, all at t=0, each running ``op``.

    Returns ``(tasks, hits)``: the tasks by index once the run starts,
    and ``(task index, time, reason)`` per cancel that reached a task.
    A task unwinds for ``unwind`` seconds after the interrupt, staying
    alive (cancelling) meanwhile.
    """
    controller = node.controller
    tasks = {}
    hits = []

    def body(env, index, lifetime):
        task = tasks[index] = controller.create_cancel(op_name=op)
        try:
            yield env.timeout(lifetime)
        except Interrupt as exc:
            hits.append((index, env.now, exc.cause.reason))
            if unwind:
                yield env.timeout(unwind)
        finally:
            controller.free_cancel(task)

    for index, lifetime in enumerate(lifetimes):
        node.env.process(body(node.env, index, lifetime))
    return tasks, hits


def cancel_elsewhere(node, at, tasks, index):
    """Cancel ``tasks[index]`` at ``at`` through another path."""
    env = node.env

    def other_path(env):
        yield env.timeout(at - env.now)
        task = tasks[index]
        signal = CancelSignal(reason="other-path", decided_at=env.now)
        task.begin_cancel(signal)
        default_initiator(task, signal)

    env.process(other_path(env))


def run_epochs(node, until, kind=CANCEL, queued=None):
    """Advance epoch by epoch to ``until``; one ``kind`` directive for
    :data:`OP` arrives with epoch :data:`DIRECTIVE_EPOCH`.  Returns the
    epoch statuses; ``queued``, when given, gets the length of the
    node's directive queue after each epoch."""
    statuses = []
    for epoch in range(round(until / EPOCH)):
        directives = (
            [Directive(epoch=epoch, kind=kind, op=OP)]
            if epoch == DIRECTIVE_EPOCH else []
        )
        statuses.append(
            node.advance(epoch, (epoch + 1) * EPOCH, [], directives)
        )
        if queued is not None:
            queued.append(len(node.pending_directives))
    return statuses


def times(hits):
    return [(index, pytest.approx(at)) for index, at, _ in hits]
