"""One fleet node: what a :class:`ClusterNode` adds to an epoch node.

The single-node stack (assembled like every run's, by
:func:`repro.experiments.harness.assemble`), the ``advance`` /
``finish`` protocol (``finish`` closes the node's environment) and the
``point``/``write``/scan alias handlers, app-first functions like the
``heavy_report`` decoy added here, are
:class:`~repro.cluster.epoch.EpochNode`'s.  A fleet node adds the
fleet's side of the boundary: routed arrival tuples in, coordinator
directives in, a JSON-able :class:`NodeStatus` out -- window counts,
victim latencies, the candidate/blame evidence the coordinator
aggregates by op (alias names ``point``/``write``/``heavy_report``/
``fanout_scan``), and the DAGOR ``admit_priority`` feedback.

A cancel directive is one sweep over the node's live, cancellable tasks
of the directive's op, one hop of ``directive_delay`` per task.  A
partitioned node (spec ``partitions``) queues its directives until it
heals; a hop that lands while it is partitioned misses, and the missed
tasks still owed a cancel get one retry pass.  A task that finished, or
that another path is already cancelling, is skipped and not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..baselines import controller_factory
from ..core.task import CancellableTask, TaskState, default_initiator
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


def _owed(task: CancellableTask) -> bool:
    """The task still needs the cancel: it has not finished, and no
    other path is cancelling it."""
    return task.state is TaskState.RUNNING and task.cancel_count == 0


class ClusterNode(EpochNode):
    """One app node, advanced epoch by epoch."""

    def __init__(
        self, spec: FleetSpec, node_spec: NodeSpec, index: int
    ) -> None:
        self.node_spec = node_spec
        super().__init__(
            spec,
            node_spec.name,
            node_spec.backend,
            index,
            rng_label=f"cluster:{node_spec.name}",
            make_controller=controller_factory(
                "atropos",
                spec.slo_latency,
                {"cancellation_enabled": spec.mode == "local"},
            ),
            start=spec.mode != "none",
            measured=spec.duration - spec.warmup,
        )
        #: Cut off from the coordinator (spec ``partitions``).
        self.partitioned = False
        #: Directives awaiting delivery (node was partitioned).
        self.pending_directives: List[Directive] = []
        #: Tasks cancelled through coordinator directives (total).
        self.directive_cancels = 0
        #: Ops those directive cancels targeted, in delivery order.
        self.directive_cancelled_ops: List[str] = []
        self._cancel_log_idx = 0
        self._directive_cancels_last = 0

    def _alias_ops(self):
        """The shared aliases with the scan named ``fanout_scan``, plus
        the fleet-only ``heavy_report`` decoy."""
        spec = self.spec
        ops = super()._alias_ops()
        ops["fanout_scan"] = ops.pop("scan")
        if self.backend == "mysql":

            def heavy_report(app, task):
                return app.report_query(
                    task,
                    pages=spec.report_pages,
                    duration=spec.report_duration,
                )

        else:

            def heavy_report(app, task):
                return app.bulk_update(task, table=0, rows=spec.report_rows)

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
        if self.pending_directives and not self.partitioned:
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
        self.partitioned = any(
            node == self.name and start <= now < end
            for node, start, end in self.spec.partitions
        )

    def _apply_directive(self, directive: Directive):
        """Process generator: sweep one cancel directive over the live
        tasks of its op, then retry the missed ones once."""
        if directive.kind != CANCEL:
            return
        op = directive.op
        targets = [
            task
            for task in self.controller.live_tasks()
            if task.op_name == op and task.cancellable
        ]
        signal = CancelSignal(
            reason=f"cluster-directive:{op}", decided_at=self.env.now
        )
        missed = yield from self._propagate(targets, op, signal)
        if any(_owed(task) for task in missed):
            yield self.env.timeout(self.spec.directive_delay)
            # Filtered again after the wait: a task that finished
            # meanwhile gets no hop, so the hops after it come no later.
            owed = [task for task in missed if _owed(task)]
            yield from self._propagate(owed, op, signal)

    def _propagate(
        self, tasks: List[CancellableTask], op: str, signal: CancelSignal
    ):
        """Process generator: one hop per task; returns the tasks whose
        hop landed while the node was partitioned."""
        missed = []
        for task in tasks:
            yield self.env.timeout(self.spec.directive_delay)
            if self.partitioned:
                missed.append(task)
            elif _owed(task):
                task.begin_cancel(signal)
                default_initiator(task, signal)
                self.directive_cancels += 1
                self.directive_cancelled_ops.append(op)
        return missed

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
