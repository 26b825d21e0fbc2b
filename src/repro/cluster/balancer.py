"""The load-balancer tier: arrival generation and per-epoch routing.

The balancer pulls the fleet arrival stream lazily, an epoch's slice at
a time (every param draw included, from forks of the fleet seed, each
fork drawing in the order a fully built stream would), and assigns each
slice to nodes using the configured routing policy and its *estimates*
of node state -- LB-local outstanding counters corrected by the
per-epoch status feedback.  ``fanout_scan`` arrivals fan one shard
to every node (the cross-node culprit); quarantined ops are dropped at
the balancer.

Because the arrival stream is a pure function of the spec and routing
state only changes at epoch boundaries, assignment is a pure function of
(spec, seed, status history) -- identical under serial and sharded
execution.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..sim.rng import Rng
from ..workloads.spec import periodic_times, poisson_times
from .directives import priority_of
from .node import Arrival, NodeStatus
from .routing import NodeView, RoutingPolicy, make_policy
from .spec import FleetSpec


#: One fleet arrival: ``(time, op, params, client)``.
FleetArrival = Tuple[float, str, dict, str]


def arrival_stream(spec: FleetSpec) -> Iterator[FleetArrival]:
    """The fleet-wide arrival stream, ascending by time, drawn lazily.

    Three components: the Poisson lightweight mix (the victims), the
    periodic single-node ``heavy_report`` decoy, and the recurring
    ``fanout_scan`` culprit the balancer fans out to every node.  They
    are merged by time; arrivals at one time keep that component order.
    Each component draws from its own forks of the fleet seed, in the
    order a fully built stream draws them.
    """
    return heapq.merge(
        _victims(spec),
        (
            (at, "heavy_report", {}, "report")
            for at in periodic_times(
                spec.report_start, spec.report_period, spec.duration
            )
        ),
        (
            (at, "fanout_scan", {"rows": spec.scan_rows}, "scan")
            for at in periodic_times(
                spec.scan_start, spec.scan_period, spec.duration
            )
        ),
        key=itemgetter(0),
    )


def _victims(spec: FleetSpec) -> Iterator[FleetArrival]:
    """The Poisson lightweight mix: one time, op and table draw each."""
    rng = Rng(spec.seed).fork("cluster:arrivals")
    table_rng = Rng(spec.seed).fork("cluster:tables")
    for t in poisson_times(
        rng, lambda: spec.arrival_rate, 0.0, spec.duration
    ):
        op = "point" if rng.random() < spec.point_weight else "write"
        yield t, op, {"table": table_rng.randint(0, spec.tables - 1)}, "lb"


def build_arrivals(spec: FleetSpec) -> List[FleetArrival]:
    """The whole :func:`arrival_stream`, as a list."""
    return list(arrival_stream(spec))


class LoadBalancer:
    """Routes the arrival stream epoch by epoch, pulling each arrival
    when its epoch is assigned."""

    def __init__(self, spec: FleetSpec, policy: RoutingPolicy = None) -> None:
        self.spec = spec
        self.policy = policy or make_policy(spec.policy)
        self.rng = Rng(spec.seed).fork("cluster:lb")
        #: The arrival stream, started by the first ``assign`` (a
        #: balancer handed to a spawn-started shard worker must pickle),
        #: and the first arrival pulled from it but not yet due.
        self._arrivals: Optional[Iterator[FleetArrival]] = None
        self._pending: Optional[FleetArrival] = None
        n = len(spec.nodes)
        self.views = [
            NodeView(index=i, name=spec.nodes[i].name) for i in range(n)
        ]
        self._assigned = [0] * n
        self._finished = [0] * n
        #: Ops the coordinator has quarantined (no longer routed).
        self.quarantined: List[str] = []
        #: Arrivals dropped because their op was quarantined, by op.
        self.quarantine_dropped: Dict[str, int] = {}
        #: Arrivals shed by the admission policy (DAGOR), by op.
        self.shed: Dict[str, int] = {}
        self.routed = 0

    # ------------------------------------------------------------------
    # Epoch assignment
    # ------------------------------------------------------------------
    def assign(self, t_end: float) -> Dict[int, List[Arrival]]:
        """Route every arrival with time < ``t_end`` not yet assigned."""
        plan: Dict[int, List[Arrival]] = {
            view.index: [] for view in self.views
        }
        arrivals = self._arrivals
        if arrivals is None:
            arrivals = self._arrivals = arrival_stream(self.spec)
            self._pending = next(arrivals, None)
        pending = self._pending
        while pending is not None and pending[0] < t_end:
            t, op, params, client = pending
            pending = next(arrivals, None)
            if op in self.quarantined:
                self.quarantine_dropped[op] = (
                    self.quarantine_dropped.get(op, 0) + 1
                )
                continue
            if op == "fanout_scan":
                # The cross-node culprit: one shard per node.
                for view in self.views:
                    if priority_of(op) > view.admit_priority:
                        self.shed[op] = self.shed.get(op, 0) + 1
                        continue
                    plan[view.index].append((t, op, dict(params), client))
                    self._assigned[view.index] += 1
                    view.outstanding += 1
                self.routed += 1
                continue
            chosen = self.policy.choose(op, self.views, self.rng)
            if chosen is None:
                self.shed[op] = self.shed.get(op, 0) + 1
                continue
            plan[chosen].append((t, op, params, client))
            self._assigned[chosen] += 1
            self.views[chosen].outstanding += 1
            self.routed += 1
        self._pending = pending
        return plan

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def update(self, statuses: List[NodeStatus]) -> None:
        """Fold the epoch's node feedback into the routing views."""
        for index, status in enumerate(statuses):
            finished = (
                status.completed_window
                + status.cancelled_window
                + status.dropped_window
            )
            self._finished[index] += finished
            view = self.views[index]
            view.outstanding = max(
                0, self._assigned[index] - self._finished[index]
            )
            view.admit_priority = status.admit_priority

    def quarantine(self, op: str) -> None:
        if op not in self.quarantined:
            self.quarantined.append(op)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "policy": self.policy.name,
            "routed": self.routed,
            "assigned": list(self._assigned),
            "shed": {k: self.shed[k] for k in sorted(self.shed)},
            "quarantined": list(self.quarantined),
            "quarantine_dropped": {
                k: self.quarantine_dropped[k]
                for k in sorted(self.quarantine_dropped)
            },
        }
