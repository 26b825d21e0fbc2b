"""The global coordinator: the fleet's slow attribution loop.

Once per epoch the coordinator receives every node's
:class:`~repro.cluster.node.NodeStatus` and runs the cross-node test no
local pipeline can: sum the contention-weighted candidate scores *by op
across nodes* over the last :attr:`GlobalCoordinator.evidence_window`
epochs and require the culprit to show positive evidence on at least
:attr:`GlobalCoordinator.min_culprit_nodes` nodes in the same epoch,
with a windowed score of at least
:attr:`GlobalCoordinator.min_culprit_score`.  A big single-node holder
(the decoy ``heavy_report``) fails the breadth test; the fanned-out
scan -- individually modest on every node -- passes it.  These are
constants of the design, not per-run settings; the spec gives the SLO
and its slack.

On a positive attribution the coordinator issues a fleet-wide cancel
directive (each node sweeps it over its live tasks of the op); an op
cancelled in :attr:`GlobalCoordinator.quarantine_offenses` epochs
escalates to an LB quarantine, cutting future damage off at the routing
tier (the DAGOR lesson: overload feedback must reach admission, not
just the replica).

The coordinator also feeds a :class:`~repro.telemetry.health.HealthMonitor`
with fleet-level windows, so standard health rules (p99-ceiling,
cancel-storm, wrong-culprit-rate) audit the fleet exactly as they audit
single-node runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..sim.metrics import percentile
from ..telemetry.health import HealthMonitor, default_health_rules
from .directives import CANCEL, QUARANTINE, Directive
from .node import NodeStatus
from .spec import FleetSpec


@dataclass
class CoordinatorDecision:
    """One epoch's attribution verdict (the fleet's decision log)."""

    epoch: int
    t: float
    fleet_p99: float
    overloaded: bool
    verdict: str  # "calm" | "no-cross-node-culprit" | "cancel" | "quarantine"
    op: str = ""
    score: float = 0.0
    breadth: int = 0
    #: Per-op (summed score, node breadth) evidence this epoch.
    evidence: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "t": round(self.t, 9),
            "fleet_p99": None
            if self.fleet_p99 != self.fleet_p99
            else round(self.fleet_p99, 9),
            "overloaded": self.overloaded,
            "verdict": self.verdict,
            "op": self.op,
            "score": round(self.score, 9),
            "breadth": self.breadth,
            "evidence": {
                op: [round(score, 9), breadth]
                for op, (score, breadth) in sorted(self.evidence.items())
            },
        }


class GlobalCoordinator:
    """Aggregates node statuses; issues fleet-wide directives."""

    #: A culprit must show positive evidence on at least this many nodes
    #: in the same epoch (the cross-node test no local view can run).
    min_culprit_nodes = 2
    #: Epochs of candidate evidence the coordinator attributes over.  A
    #: hit-and-run culprit (short fanned-out burst) finishes before its
    #: damage peaks in the victim tail; the window lets attribution look
    #: back at evidence scraped while the culprit was live.
    evidence_window = 4
    #: Minimum windowed evidence score to be attributable.  Victims show
    #: up as candidates too (every op holds *some* resource while the
    #: fleet is slow); their scores are orders of magnitude below a real
    #: holder's, and the floor keeps post-quarantine residual overload
    #: from walking down the candidate list onto them.
    min_culprit_score = 10.0
    #: Cancel directives for the same op across this many epochs escalate
    #: to an LB quarantine (stop routing the op entirely).
    quarantine_offenses = 2

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.decisions: List[CoordinatorDecision] = []
        self.directives: List[Directive] = []
        self.quarantined: List[str] = []
        self._offenses: Dict[str, int] = {}
        #: Last :attr:`evidence_window` epochs of per-op evidence.
        self._evidence_history: List[Dict[str, Tuple[float, int]]] = []
        self.monitor = HealthMonitor(
            default_health_rules(
                slo=spec.slo_latency,
                expected_culprits=spec.expected_culprits,
            )
        )

    # ------------------------------------------------------------------
    # The slow loop
    # ------------------------------------------------------------------
    def observe(
        self, epoch: int, t: float, statuses: List[NodeStatus]
    ) -> List[Directive]:
        """Attribute this epoch; returns directives (empty when calm).

        Directives are returned regardless of the fleet mode -- the
        caller decides whether to deliver them (coordinated) or merely
        record what the coordinator *would* have done (local/none).
        """
        latencies: List[float] = []
        cancelled_ops: List[str] = []
        completed = goodput = offered = cancels = 0
        for status in statuses:
            latencies.extend(status.victim_latencies)
            completed += status.completed_window
            offered += status.offered_window
            goodput += status.goodput_window
            cancelled_ops.extend(status.local_cancelled_ops)
            cancels += (
                len(status.local_cancelled_ops)
                + status.directive_cancels_window
            )
        fleet_p99 = (
            percentile(latencies, 99) if latencies else float("nan")
        )
        self.monitor.evaluate(
            t,
            {
                "p99": fleet_p99,
                "completed_window": float(completed),
                "offered_window": float(offered),
                "goodput": goodput,
                "cancels_window": float(cancels),
            },
            cancelled_ops,
        )
        epoch_evidence = self._aggregate(statuses)
        self._evidence_history.append(epoch_evidence)
        del self._evidence_history[:-self.evidence_window]
        evidence = self._windowed_evidence()
        overloaded = (
            fleet_p99 == fleet_p99
            and fleet_p99 > self.spec.slo_latency * self.spec.slo_slack
        )
        decision = CoordinatorDecision(
            epoch=epoch,
            t=t,
            fleet_p99=fleet_p99,
            overloaded=overloaded,
            verdict="calm",
            evidence=evidence,
        )
        issued: List[Directive] = []
        if overloaded:
            culprit = self._attribute(evidence)
            if culprit is None:
                decision.verdict = "no-cross-node-culprit"
            else:
                op, (score, breadth) = culprit
                decision.op = op
                decision.score = score
                decision.breadth = breadth
                offenses = self._offenses.get(op, 0) + 1
                self._offenses[op] = offenses
                reason = (
                    f"score {score:.3f} on {breadth} nodes "
                    f"(fleet p99 {fleet_p99 * 1000:.0f}ms)"
                )
                issued.append(
                    Directive(
                        epoch=epoch, kind=CANCEL, op=op,
                        reason=reason, issued_at=t,
                    )
                )
                decision.verdict = "cancel"
                if (
                    offenses >= self.quarantine_offenses
                    and op not in self.quarantined
                ):
                    self.quarantined.append(op)
                    issued.append(
                        Directive(
                            epoch=epoch, kind=QUARANTINE, op=op,
                            reason=f"{offenses} offenses", issued_at=t,
                        )
                    )
                    decision.verdict = "quarantine"
        self.decisions.append(decision)
        self.directives.extend(issued)
        return issued

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _aggregate(
        self, statuses: List[NodeStatus]
    ) -> Dict[str, Tuple[float, int]]:
        """Sum candidate scores by op across nodes; count node breadth."""
        scores: Dict[str, float] = {}
        breadth: Dict[str, int] = {}
        for status in statuses:
            for op in sorted(status.candidates):
                scores[op] = scores.get(op, 0.0) + status.candidates[op]
                breadth[op] = breadth.get(op, 0) + 1
        return {op: (scores[op], breadth[op]) for op in sorted(scores)}

    def _windowed_evidence(self) -> Dict[str, Tuple[float, int]]:
        """Merge the history window: summed score, max per-epoch breadth.

        Breadth is the *within-epoch* maximum, not a cross-epoch union --
        a single-node decoy observed on different nodes in different
        epochs (it rotates with routing) must not fake fleet-wide spread.
        """
        scores: Dict[str, float] = {}
        breadth: Dict[str, int] = {}
        for epoch_evidence in self._evidence_history:
            for op, (score, nodes) in epoch_evidence.items():
                scores[op] = scores.get(op, 0.0) + score
                breadth[op] = max(breadth.get(op, 0), nodes)
        return {op: (scores[op], breadth[op]) for op in sorted(scores)}

    def _attribute(
        self, evidence: Dict[str, Tuple[float, int]]
    ) -> "Tuple[str, Tuple[float, int]] | None":
        """The cross-node test: max summed score with enough breadth."""
        eligible = [
            (op, entry)
            for op, entry in evidence.items()
            if entry[1] >= self.min_culprit_nodes
            and entry[0] >= self.min_culprit_score
            and op not in self.quarantined
        ]
        if not eligible:
            return None
        return max(eligible, key=lambda item: (item[1][0], item[0]))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "decisions": [d.to_dict() for d in self.decisions],
            "directives": [d.to_dict() for d in self.directives],
            "quarantined": list(self.quarantined),
            "health_events": [e.to_dict() for e in self.monitor.events],
        }
