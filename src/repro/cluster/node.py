"""One fleet node: what a :class:`ClusterNode` adds to an epoch node.

The single-node stack, the ``advance`` / ``finish`` protocol and the
``point``/``write``/scan alias handlers are
:class:`~repro.cluster.epoch.EpochNode`'s.  A fleet node adds the
fleet's side of the boundary: routed arrival tuples in, coordinator
directives in, a JSON-able :class:`NodeStatus` out -- window counts,
victim latencies, the candidate/blame evidence the coordinator
aggregates by op (alias names ``point``/``write``/``heavy_report``/
``fanout_scan``), and the DAGOR ``admit_priority`` feedback.

Directive delivery reuses :mod:`repro.core.distributed`: each cancel
directive builds a :class:`~repro.core.distributed.TaskTree` over the
node's matching live tasks and propagates with per-hop delay; a
partitioned node (spec ``partitions``) defers the directive and retries
it on later epochs, and tasks another path already cancelled count as
delivered (``already-cancelling``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..core.atropos import Atropos
from ..core.config import AtroposConfig
from ..core.distributed import Node as DistNode
from ..core.distributed import TaskTree
from ..core.task import CancellableTask
from ..core.types import CancelSignal
from ..sim.metrics import percentile
from .directives import CANCEL, Directive
from .epoch import EpochNode
from .spec import FleetSpec, NodeSpec

#: Arrival tuple crossing the LB -> node boundary (picklable).
#: ``(time, op, params, client_id)``.
Arrival = tuple


@dataclass
class NodeStatus:
    """One node's epoch-end snapshot (crosses shard-process pipes)."""

    node: str
    backend: str
    epoch: int
    t: float
    outstanding: int = 0
    offered_window: int = 0
    completed_window: int = 0
    cancelled_window: int = 0
    dropped_window: int = 0
    completions_by_op: Dict[str, int] = field(default_factory=dict)
    #: Latencies of completed victim ("point") requests this window.
    victim_latencies: List[float] = field(default_factory=list)
    p99_window: float = float("nan")
    goodput_window: float = 0.0
    #: Contention-weighted candidate scores by op (the audit
    #: scalarization of §3.5, summed over live tasks), from the node's
    #: most recent overload assessment.
    candidates: Dict[str, float] = field(default_factory=dict)
    #: Normalized contention per resource from the same assessment.
    blame: Dict[str, float] = field(default_factory=dict)
    #: Ops cancelled by the node's *local* pipeline this window.
    local_cancelled_ops: List[str] = field(default_factory=list)
    #: Tasks cancelled by coordinator directives this window.
    directive_cancels_window: int = 0
    #: Directives still pending delivery (node partitioned).
    directives_deferred: int = 0
    #: DAGOR feedback: highest op priority value the node admits.
    admit_priority: int = 99

    def to_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["victim_latencies"] = list(self.victim_latencies)
        out["completions_by_op"] = dict(self.completions_by_op)
        out["candidates"] = {
            k: round(v, 9) for k, v in sorted(self.candidates.items())
        }
        out["blame"] = {
            k: round(v, 9) for k, v in sorted(self.blame.items())
        }
        return out


class ClusterNode(EpochNode):
    """One app node, advanced epoch by epoch."""

    def __init__(
        self, spec: FleetSpec, node_spec: NodeSpec, index: int
    ) -> None:
        self.node_spec = node_spec
        config = AtroposConfig(
            slo_latency=spec.slo_latency,
            cancellation_enabled=(spec.mode == "local"),
        )
        super().__init__(
            spec,
            node_spec.name,
            node_spec.backend,
            index,
            rng_label=f"cluster:{node_spec.name}",
            make_controller=lambda env: Atropos(env, config),
            start=spec.mode != "none",
            measured=spec.duration - spec.warmup,
        )
        #: Reachability handle for the coordinator's failure model.
        self.dist_node = DistNode(self.name)
        #: Directives awaiting delivery (node was partitioned).
        self.pending_directives: List[Directive] = []
        #: Tasks cancelled through coordinator directives (total).
        self.directive_cancels = 0
        #: Ops those directive cancels targeted, in delivery order.
        self.directive_cancelled_ops: List[str] = []
        self._directive_seq = 0
        self._cancel_log_idx = 0
        self._directive_cancels_last = 0

    def _alias_ops(self):
        """The shared aliases with the scan named ``fanout_scan``, plus
        the fleet-only ``heavy_report`` decoy."""
        app = self.app
        spec = self.spec
        ops = super()._alias_ops()
        ops["fanout_scan"] = ops.pop("scan")
        if self.backend == "mysql":

            def heavy_report(task):
                yield from app.report_query(
                    task,
                    pages=spec.report_pages,
                    duration=spec.report_duration,
                )

        else:

            def heavy_report(task):
                yield from app.bulk_update(task, table=0, rows=spec.report_rows)

        ops["heavy_report"] = heavy_report
        return ops

    # ------------------------------------------------------------------
    # Epoch hooks
    # ------------------------------------------------------------------
    def _deliver(self, directives: List[Directive]) -> None:
        """Schedule due directives (ahead of the epoch's arrivals)."""
        self._apply_partition_schedule(self.env.now)
        if directives:
            self.pending_directives.extend(directives)
        if self.pending_directives and self.dist_node.reachable:
            due = self.pending_directives
            self.pending_directives = []
            for directive in due:
                self.env.process(self._apply_directive(directive))

    def _submit(self, arrivals: List[Arrival]) -> None:
        """One ``run_arrivals`` per client, in first-seen order."""
        by_client: Dict[str, List] = {}
        for t, op, params, client in arrivals:
            by_client.setdefault(client, []).append(
                (t, self._make_op(op, params))
            )
        for client, entries in by_client.items():
            self.driver.run_arrivals(entries, client_id=client)

    def _apply_partition_schedule(self, now: float) -> None:
        partitioned = any(
            node == self.name and start <= now < end
            for node, start, end in self.spec.partitions
        )
        if partitioned and not self.dist_node.partitioned:
            self.dist_node.partition()
        elif not partitioned and self.dist_node.partitioned:
            self.dist_node.heal()

    def _apply_directive(self, directive: Directive):
        """Process generator: deliver one cancel directive via TaskTree."""
        if directive.kind != CANCEL:
            return
        targets = [
            task
            for task in self.controller.live_tasks()
            if task.op_name == directive.op and task.cancellable
        ]
        if not targets:
            return
        self._directive_seq += 1
        # The root is no task of this node's controller: a negative
        # ``seq`` leaves the controller's numbering as it is.
        root = CancellableTask(
            self.env,
            seq=-self._directive_seq,
            key=f"{self.name}:directive:{self._directive_seq}",
            op_name="cluster-directive",
            client_id="coordinator",
            cancellable=False,
        )
        tree = TaskTree(
            self.env, root, propagation_delay=self.spec.directive_delay
        )
        for task in targets:
            tree.add_child(task, self.dist_node)
        signal = CancelSignal(
            reason=f"cluster-directive:{directive.op}",
            decided_at=self.env.now,
        )
        deliveries = yield from tree.cancel_all(signal)
        self._count_directive_deliveries(deliveries, directive.op)
        if tree.undelivered():
            yield self.env.timeout(self.spec.directive_delay)
            retried = yield from tree.retry_undelivered(signal)
            self._count_directive_deliveries(retried, directive.op)

    def _count_directive_deliveries(self, deliveries, op: str) -> None:
        fresh = sum(1 for d in deliveries if d.delivered and not d.reason)
        self.directive_cancels += fresh
        self.directive_cancelled_ops.extend([op] * fresh)

    # ------------------------------------------------------------------
    # Status snapshot
    # ------------------------------------------------------------------
    def _status(self, window: List, **common: Any) -> NodeStatus:
        spec = self.spec
        status = NodeStatus(node=self.name, **common)
        window_len = max(spec.epoch, 1e-9)
        good = 0
        for record in window:
            if record.completed:
                status.completed_window += 1
                status.completions_by_op[record.op_name] = (
                    status.completions_by_op.get(record.op_name, 0) + 1
                )
                if record.op_name == "point":
                    status.victim_latencies.append(record.latency)
                if record.latency <= spec.slo_latency:
                    good += 1
            elif record.status.value == "cancelled":
                status.cancelled_window += 1
            else:
                status.dropped_window += 1
        status.goodput_window = good / window_len
        if status.victim_latencies:
            status.p99_window = percentile(status.victim_latencies, 99)
        self._fill_candidates(status)
        log = self.controller.cancellation.log
        status.local_cancelled_ops = [
            entry.op_name for entry in log[self._cancel_log_idx:]
        ]
        self._cancel_log_idx = len(log)
        status.directive_cancels_window = (
            self.directive_cancels - self._directive_cancels_last
        )
        self._directive_cancels_last = self.directive_cancels
        status.directives_deferred = len(self.pending_directives)
        status.admit_priority = self._admit_priority(status)
        return status

    def _fill_candidates(self, status: NodeStatus) -> None:
        """Report the audit scalarization of the latest assessment.

        Only live tasks count (a finished culprit frees nothing), and
        only while the node still sees meaningful contention -- a stale
        assessment from a recovered node must not keep accusing ops.
        """
        assessment = self.controller.last_assessment
        if assessment is None:
            return
        threshold = self.controller.config.contention_threshold
        blame = assessment.blame_scores()
        if max(blame.values(), default=0.0) < 0.5 * threshold:
            return
        status.blame = dict(blame)
        for report in assessment.tasks:
            task = report.task
            if not task.alive:
                continue
            score = assessment.score(report)
            if score > 0.0:
                status.candidates[task.op_name] = (
                    status.candidates.get(task.op_name, 0.0) + score
                )

    def _admit_priority(self, status: NodeStatus) -> int:
        """DAGOR feedback: tighten admission as the window p99 degrades."""
        spec = self.spec
        p99 = status.p99_window
        if p99 != p99:  # no victim completions: stay open
            return 99
        if p99 > 2.0 * spec.slo_latency:
            return 1  # only point + write
        if p99 > spec.slo_latency * spec.slo_slack:
            return 2  # shed fanout_scan
        return 99

    # ------------------------------------------------------------------
    # Final report
    # ------------------------------------------------------------------
    def _report_extra(self) -> Dict[str, Any]:
        log = self.controller.cancellation.log
        return {
            "local_cancels": int(self.controller.cancels_issued),
            "local_cancelled_ops": [entry.op_name for entry in log],
            "directive_cancels": int(self.directive_cancels),
            "directive_cancelled_ops": list(self.directive_cancelled_ops),
            "regular_overloads": int(self.controller.regular_overloads),
        }
