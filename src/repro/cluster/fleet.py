"""The fleet: LB + GlobalCoordinator as the per-epoch planner.

Execution model (the key to serial==sharded byte parity): within an
epoch every node advances independently -- the balancer pre-assigns the
epoch's arrivals using epoch-*start* state, and coordinator directives
issued at epoch ``k`` are delivered at the start of epoch ``k + 1``.
Cross-node coupling therefore happens only at epoch boundaries, through
picklable values (arrival tuples, :class:`NodeStatus`,
:class:`Directive`), so a node's trajectory is a pure function of the
spec and the boundary inputs.  The loop, the shard workers and the
serial-or-sharded rule are :mod:`repro.cluster.epoch`'s; this module is
the fleet's planner (:class:`_FleetPlanner`) and its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.metrics import percentile
from .balancer import LoadBalancer
from .coordinator import GlobalCoordinator
from .directives import QUARANTINE, Directive
from .epoch import EpochResult, LocalRun, p99_text, run_epochs
from .node import Arrival, ClusterNode, NodeStatus
from .spec import FleetSpec


@dataclass
class FleetResult(EpochResult):
    """Everything a fleet run produces (JSON-able, deterministic)."""

    _rounded = ("victim_p99", "goodput", "wrong_culprit_rate")
    _reports = "node_reports"

    spec_mode: str
    policy: str
    n_nodes: int
    duration: float
    #: Fleet-wide victim ("point") p99 over post-warmup epochs, seconds.
    victim_p99: float = float("nan")
    #: Fleet-wide completions under SLO per second, post-warmup.
    goodput: float = 0.0
    #: All delivered cancellations (local + directive).
    cancels_total: int = 0
    #: Delivered cancellations whose op was not an expected culprit.
    wrong_cancels: int = 0
    wrong_culprit_rate: float = 0.0
    directives: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    health_events: List[Dict[str, Any]] = field(default_factory=list)
    lb: Dict[str, Any] = field(default_factory=dict)
    node_reports: List[Dict[str, Any]] = field(default_factory=list)
    epochs: int = 0

    def render(self) -> str:
        """Operator-facing text report."""
        lines = [
            f"fleet: {self.n_nodes} nodes, policy={self.policy}, "
            f"mode={self.spec_mode}, {self.epochs} epochs",
            f"victim p99 {p99_text(self.victim_p99)} | "
            f"goodput {self.goodput:.1f}/s | "
            f"cancels {self.cancels_total} "
            f"(wrong {self.wrong_cancels}, "
            f"rate {self.wrong_culprit_rate:.2f})",
            f"directives {len(self.directives)} | "
            f"quarantined {self.quarantined or '-'}",
            "",
            f"{'node':<10} {'backend':<9} {'tput':>7} {'p99':>9} "
            f"{'local':>6} {'directive':>10}",
        ]
        for report in self.node_reports:
            lines.append(
                f"{report['node']:<10} {report['backend']:<9} "
                f"{report['throughput']:>7.1f} "
                f"{p99_text(report['p99_latency']):>9} "
                f"{report['local_cancels']:>6} "
                f"{report['directive_cancels']:>10}"
            )
        return "\n".join(lines)


class _FleetPlanner:
    """The fleet's slow loop: route arrivals in, fold statuses back."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.node_names = [node.name for node in spec.nodes]
        self.balancer = LoadBalancer(spec)
        self.coordinator = GlobalCoordinator(spec)
        self.statuses_by_epoch: List[List[NodeStatus]] = []
        #: Cancel directives issued last epoch, delivered this one.
        self.pending: List[Directive] = []

    def make_node(self, spec: FleetSpec, index: int) -> ClusterNode:
        return ClusterNode(spec, spec.nodes[index], index)

    def plan(
        self, epoch: int, t_end: float
    ) -> Dict[int, Tuple[List[Arrival], List[Directive]]]:
        return {
            index: (arrivals, self.pending)
            for index, arrivals in self.balancer.assign(t_end).items()
        }

    def fold(
        self, epoch: int, t_end: float, statuses: List[NodeStatus]
    ) -> None:
        self.statuses_by_epoch.append(statuses)
        self.balancer.update(statuses)
        issued = self.coordinator.observe(epoch, t_end, statuses)
        self.pending = []
        if self.spec.mode == "coordinated":
            for directive in issued:
                if directive.kind == QUARANTINE:
                    self.balancer.quarantine(directive.op)
                else:
                    self.pending.append(directive)

    def summarize(self, reports: List[Dict[str, Any]]) -> FleetResult:
        spec = self.spec
        result = FleetResult(
            spec_mode=spec.mode,
            policy=spec.policy,
            n_nodes=len(spec.nodes),
            duration=spec.duration,
            epochs=len(self.statuses_by_epoch),
            lb=self.balancer.stats(),
            node_reports=reports,
            # directives, quarantined, decisions, health_events
            **self.coordinator.stats(),
        )
        latencies: List[float] = []
        good = 0.0
        for statuses in self.statuses_by_epoch:
            for status in statuses:
                if status.t <= spec.warmup:
                    continue
                latencies.extend(status.victim_latencies)
                good += status.goodput_window * spec.epoch
        effective = max(spec.duration - spec.warmup, 1e-9)
        if latencies:
            result.victim_p99 = percentile(latencies, 99)
        result.goodput = good / effective
        expected = set(spec.expected_culprits)
        cancelled_ops: List[str] = []
        for report in reports:
            cancelled_ops.extend(report["local_cancelled_ops"])
            cancelled_ops.extend(report["directive_cancelled_ops"])
        result.cancels_total = len(cancelled_ops)
        result.wrong_cancels = sum(
            1 for op in cancelled_ops if op not in expected
        )
        result.wrong_culprit_rate = (
            result.wrong_cancels / result.cancels_total
            if result.cancels_total
            else 0.0
        )
        return result


class Fleet(LocalRun):
    """Builds and drives one fleet run in this process (serial path)."""

    def __init__(self, spec: FleetSpec) -> None:
        super().__init__(_FleetPlanner(spec))


def run_fleet(spec: FleetSpec, jobs: Optional[int] = None) -> FleetResult:
    """Run a fleet to completion; serial or sharded, same bytes.

    ``jobs`` defaults to the campaign worker-pool settings
    (:func:`repro.campaign.settings` overlays / ``REPRO_JOBS``); node
    simulations are sharded round-robin across ``min(jobs, nodes)``
    persistent fork-started workers, or run serially where
    :func:`repro.cluster.epoch.shard_count` says so.
    """
    return run_epochs(_FleetPlanner(spec), jobs)
