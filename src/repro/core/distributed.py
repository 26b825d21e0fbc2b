"""Distributed task trees and cancellation propagation.

The paper scopes ATROPOS to single-node applications but sketches the
extension (§4): "the task manager could associate child tasks with their
root request and propagate cancellation signals", with failure handling
(crashes, timeouts, partitions) left as future work.  This module
implements that sketch on the simulation substrate:

* a :class:`TaskTree` associates child tasks (fan-out work on other
  simulated nodes) with their root request;
* cancelling the root propagates the signal to every live descendant,
  in registration order, with a configurable per-hop delay (network
  latency);
* propagation is *best-effort per the paper's model*: children on
  partitioned/crashed nodes miss the signal, and the tree reports which
  deliveries failed so callers can retry or escalate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from .task import CancellableTask, default_initiator
from .types import CancelSignal

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


@dataclass
class Delivery:
    """Outcome of one propagated cancellation."""

    task: CancellableTask
    node: str
    delivered: bool
    at: float
    reason: str = ""


class Node:
    """A named remote node that may be partitioned or crashed.

    The two failure modes are distinct, matching their real-world
    recovery paths: a *partition* (:meth:`partition`) is a network
    fault that :meth:`heal` undoes; a *crash* (:meth:`crash`) takes the
    node down until :meth:`restart`.  Healing a partition does not
    revive a crashed node.  :attr:`reachable` is the combined view a
    cancellation delivery sees.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.partitioned = False
        self.crashed = False

    @property
    def reachable(self) -> bool:
        return not self.partitioned and not self.crashed

    def partition(self) -> None:
        self.partitioned = True

    def heal(self) -> None:
        self.partitioned = False

    def crash(self) -> None:
        self.crashed = True

    def restart(self) -> None:
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.crashed:
            state = "crashed"
        elif self.partitioned:
            state = "partitioned"
        else:
            state = "up"
        return f"<Node {self.name} {state}>"


class TaskTree:
    """Root request with children fanned out across nodes."""

    def __init__(
        self,
        env: "Environment",
        root: CancellableTask,
        propagation_delay: float = 0.002,
    ) -> None:
        self.env = env
        self.root = root
        self.propagation_delay = propagation_delay
        #: child task -> node it runs on.  Keyed by the task itself:
        #: children come from several nodes' controllers, whose ``seq``
        #: numbers collide.
        self._children: Dict[CancellableTask, Node] = {}
        self.deliveries: List[Delivery] = []

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_child(self, task: CancellableTask, node: Node) -> None:
        """Associate a child task (running on ``node``) with the root."""
        if task is self.root:
            raise ValueError("the root cannot be its own child")
        self._children[task] = node
        task.root_key = self.root.key

    def remove_child(self, task: CancellableTask) -> None:
        self._children.pop(task, None)

    @property
    def children(self) -> List[CancellableTask]:
        return list(self._children)

    def live_children(self) -> List[CancellableTask]:
        return [t for t in self.children if t.alive]

    # ------------------------------------------------------------------
    # Cancellation propagation
    # ------------------------------------------------------------------
    def cancel_all(self, signal: Optional[CancelSignal] = None):
        """Process generator: cancel the root and propagate to children.

        Returns the list of :class:`Delivery` outcomes.  Children on
        unreachable nodes are recorded as undelivered -- the caller
        decides whether to retry (see :meth:`retry_undelivered`).
        """
        signal = signal or CancelSignal(
            reason="distributed-cancel", decided_at=self.env.now
        )
        if self.root.cancellable:
            self.root.begin_cancel(signal)
            if self.env.active_process is not self.root.process:
                default_initiator(self.root, signal)
            # else: the root itself initiated the abort (client disconnect
            # handled inline); it unwinds on its own after propagation.
        for task, node in list(self._children.items()):
            yield self.env.timeout(self.propagation_delay)
            delivery = self._deliver(task, node, signal)
            self.deliveries.append(delivery)
        return self.deliveries

    def _deliver(
        self, task: CancellableTask, node: Node, signal: CancelSignal
    ) -> Delivery:
        now = self.env.now
        if not node.reachable:
            return Delivery(
                task=task, node=node.name, delivered=False, at=now,
                reason="node-crashed" if node.crashed else "node-unreachable",
            )
        if not task.alive:
            return Delivery(
                task=task, node=node.name, delivered=True, at=now,
                reason="already-finished",
            )
        if task.cancel_count > 0:
            # A previous delivery (or another cancellation path) already
            # reached this task; it is unwinding.  The signal is moot, so
            # the delivery counts as done rather than failed -- otherwise
            # retry passes keep producing spurious failure records until
            # the task finishes unwinding.
            return Delivery(
                task=task, node=node.name, delivered=True, at=now,
                reason="already-cancelling",
            )
        if task.state.value == "running":
            task.begin_cancel(signal)
            default_initiator(task, signal)
            return Delivery(task=task, node=node.name, delivered=True, at=now)
        return Delivery(
            task=task, node=node.name, delivered=False, at=now,
            reason="not-cancellable",
        )

    def undelivered(self) -> List[Delivery]:
        """Deliveries still owed: per child, the *latest* attempt failed.

        Only the most recent delivery per task decides -- earlier failed
        attempts are superseded by a later success (heal -> retry) or a
        later failure (so one task contributes one entry, never one per
        historical attempt).  Tasks that finished or are already
        unwinding a cancellation are excluded.  Order follows child
        registration order, matching :meth:`cancel_all`.
        """
        latest: Dict[CancellableTask, Delivery] = {}
        for delivery in self.deliveries:
            latest[delivery.task] = delivery
        owed: List[Delivery] = []
        for task in self._children:
            delivery = latest.get(task)
            if delivery is None or delivery.delivered:
                continue
            if not task.alive or task.cancel_count > 0:
                continue
            owed.append(delivery)
        return owed

    def retry_undelivered(self, signal: Optional[CancelSignal] = None):
        """Process generator: re-attempt failed deliveries (healed nodes).

        The snapshot of owed deliveries is taken once per pass (one
        retry per still-unreached child per pass), and each re-attempt
        pays the same per-hop propagation delay as the original
        :meth:`cancel_all` fan-out, in the same registration order.
        """
        signal = signal or CancelSignal(
            reason="distributed-cancel-retry", decided_at=self.env.now
        )
        retried: List[Delivery] = []
        for stale in self.undelivered():
            task = stale.task
            node = self._children.get(task)
            if node is None:
                continue
            yield self.env.timeout(self.propagation_delay)
            delivery = self._deliver(task, node, signal)
            self.deliveries.append(delivery)
            retried.append(delivery)
        return retried

    def fully_cancelled(self) -> bool:
        """True once the root and every child have unwound."""
        return not self.root.alive and not self.live_children()
