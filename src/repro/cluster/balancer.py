"""The load-balancer tier: arrival generation and per-epoch routing.

The balancer pre-generates the whole fleet arrival stream at build time
(every param draw included, from forks of the fleet seed), then assigns
each epoch's slice to nodes using the configured routing policy and its
*estimates* of node state -- LB-local outstanding counters corrected by
the per-epoch status feedback.  ``fanout_scan`` arrivals fan one shard
to every node (the cross-node culprit); quarantined ops are dropped at
the balancer.

Because arrivals are fully materialized up front and routing state only
changes at epoch boundaries, assignment is a pure function of (spec,
seed, status history) -- identical under serial and sharded execution.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.rng import Rng
from ..workloads.spec import periodic_times, poisson_times
from .directives import priority_of
from .node import Arrival, NodeStatus
from .routing import NodeView, RoutingPolicy, make_policy
from .spec import FleetSpec


def build_arrivals(spec: FleetSpec) -> List[Tuple[float, str, dict, str]]:
    """Materialize the fleet-wide arrival stream (sorted by time).

    Three components: the Poisson lightweight mix (the victims), the
    periodic single-node ``heavy_report`` decoy, and the recurring
    ``fanout_scan`` culprit the balancer fans out to every node.
    """
    rng = Rng(spec.seed).fork("cluster:arrivals")
    table_rng = Rng(spec.seed).fork("cluster:tables")
    out: List[Tuple[float, str, dict, str]] = []
    for t in poisson_times(
        rng, lambda: spec.arrival_rate, 0.0, spec.duration
    ):
        op = "point" if rng.random() < spec.point_weight else "write"
        params = {"table": table_rng.randint(0, spec.tables - 1)}
        out.append((t, op, params, "lb"))
    for at in periodic_times(
        spec.report_start, spec.report_period, spec.duration
    ):
        out.append((at, "heavy_report", {}, "report"))
    for at in periodic_times(spec.scan_start, spec.scan_period, spec.duration):
        out.append((at, "fanout_scan", {"rows": spec.scan_rows}, "scan"))
    out.sort(key=lambda a: a[0])
    return out


class LoadBalancer:
    """Routes the pre-generated stream epoch by epoch."""

    def __init__(self, spec: FleetSpec, policy: RoutingPolicy = None) -> None:
        self.spec = spec
        self.policy = policy or make_policy(spec.policy)
        self.rng = Rng(spec.seed).fork("cluster:lb")
        self.arrivals = build_arrivals(spec)
        self._cursor = 0
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
        arrivals = self.arrivals
        cursor = self._cursor
        while cursor < len(arrivals) and arrivals[cursor][0] < t_end:
            t, op, params, client = arrivals[cursor]
            cursor += 1
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
        self._cursor = cursor
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
