"""Mitigation levers: what the pipeline *does* about a resource overload.

The paper's thesis is targeted task cancellation, but cancellation is
one point in a larger design space of mitigations.  This module
generalizes the ATROPOS action stage into a **lever registry** so the
same detect -> classify -> blame machinery can drive different
mitigations and ``repro run ablate-levers`` can contrast them:

* :class:`CancelLever` -- the paper's action (and the default): cancel
  the highest-gain culprit task, byte-identical to the behaviour
  before levers existed.
* :class:`LockScheduleLever` -- a Malthusian-Locks-style resource-level
  mitigation (arXiv 1511.06035): instead of killing the culprit, *park*
  its queued lock waiters off the dispatch path
  (:meth:`~repro.sim.resources.lock.SyncLock.reshape_queue`) so victims
  overtake at the culprit's chunk boundaries; the lock itself readmits
  parked waiters serially whenever it goes fully idle.  No work is lost
  -- the culprit finishes late rather than never.
* :class:`CompositeLever` -- audited per-decision choice: reshape when
  the culprit is a lock with parkable culprit-class waiters, cancel
  otherwise.  Every choice is a :attr:`DecisionKind.LEVER` record.

All levers share :class:`MitigationLever`'s skeleton, which carries the
detection record, estimator assessment, classification, and decision
audit exactly as the historical code did; only the post-classification
*apply* step differs.  Audit verdicts gain two lever-specific values:
``"lock-reshaped"`` (waiters parked) and ``"lever-noop"`` (the lever
found nothing actionable).
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .decision_log import (
    NO_CANDIDATES,
    CandidateColumns,
    DecisionAudit,
    DecisionKind,
    DetectorSignal,
    ResourceEvidence,
)
from .pipeline import ActionPolicy
from .types import ResourceHandle, ResourceType

#: An audit's gain-matrix entry for "no positive gain".
_NO_GAIN = float("nan")

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import Application
    from ..sim.resources.lock import SyncLock
    from .atropos import Atropos


class MitigationLever(ActionPolicy):
    """The per-window decision: classify, pick a culprit, mitigate (§3.3-3.5).

    Mutates the owning controller's counters and decision log so the
    controller's public diagnostics (``regular_overloads``,
    ``last_assessment``, ``cancels_issued``, ``explain()``) keep their
    historical meaning.  Subclasses implement :meth:`_apply` (the
    mitigation proper) and may override :meth:`_on_calm` (invoked every
    window the detector reports no potential overload).
    """

    name = "cancellation"
    #: Registry key; also stamped on lever decision records and audits.
    lever_name = "lever"

    def __init__(self, controller: "Atropos") -> None:
        # The controller owns its lever: refer back weakly, or the two
        # would be a reference cycle that outlives the run.
        self._controller = weakref.ref(controller)
        #: Interned audit gain-column names (resource names, sorted).
        self._gain_names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    @property
    def controller(self) -> "Atropos":
        return self._controller()

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        if signals.get("potential_overload"):
            self._handle_potential_overload(
                signals.get("oldest_inflight_age", 0.0)
            )
        else:
            self._on_calm(now)

    def _on_calm(self, now: float) -> None:
        """Hook for levers with state to unwind when overload subsides."""

    def _handle_potential_overload(self, oldest_age: float = 0.0) -> None:
        c = self.controller
        now = c.env.now
        sample = c.detector.last
        c.decision_log.record(
            now,
            DecisionKind.DETECTION,
            "potential overload",
            tail_p99=round(sample.tail_latency, 4) if sample else None,
            throughput=round(sample.throughput, 1) if sample else None,
        )
        assessment = c.estimator.assess(
            resources=list(c.resources.values()),
            tasks=c.live_tasks(),
            use_future_gain=c.policy.uses_future_gain,
        )
        c.last_assessment = assessment
        audit = self._start_audit(now, sample, oldest_age, assessment)
        hottest = assessment.most_contended()
        if not assessment.is_resource_overload:
            # Regular (demand) overload: out of scope for cancellation
            # (§3.3 leaves it to conventional overload control); only
            # counted.
            c.regular_overloads += 1
            c.decision_log.record(
                now,
                DecisionKind.CLASSIFICATION,
                "regular (demand) overload",
                hottest=str(hottest.resource) if hottest else None,
                contention=round(hottest.contention_norm, 3)
                if hottest
                else None,
            )
            audit.verdict = "regular-overload"
            self._finish_audit(audit)
            return
        culprit_resource = next(
            (r for r in assessment.resources if r.overloaded and r.concentrated),
            hottest,
        )
        audit.culprit_resource = (
            culprit_resource.resource.name if culprit_resource else None
        )
        c.decision_log.record(
            now,
            DecisionKind.CLASSIFICATION,
            "resource overload",
            resource=str(culprit_resource.resource),
            contention=round(culprit_resource.contention_norm, 3),
            gain_skew=round(culprit_resource.gain_skew, 1)
            if culprit_resource.gain_skew != float("inf")
            else "inf",
        )
        self._apply(now, assessment, hottest, culprit_resource, audit)

    def _apply(self, now, assessment, hottest, culprit_resource, audit):
        """Apply this lever's mitigation; must finish the audit."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The cancellation mitigation (shared: CancelLever + CompositeLever)
    # ------------------------------------------------------------------
    def _apply_cancel(self, now, assessment, hottest, audit) -> None:
        c = self.controller
        selection = c.policy.select(assessment)
        if selection is None:
            c.decision_log.record(
                now, DecisionKind.CANCEL_BLOCKED, "no cancellable candidate"
            )
            audit.verdict = "no-candidate"
            self._finish_audit(audit)
            return
        task, score = selection
        audit.select(task.key, score)
        cancelled = c.cancellation.cancel(
            task,
            resource=hottest.resource if hottest else None,
            score=score,
        )
        if cancelled:
            c.cancels_issued += 1
            c.decision_log.record(
                now,
                DecisionKind.CANCELLATION,
                f"cancelled {task.op_name!r}",
                key=task.key,
                score=round(score, 2),
                progress=round(task.progress(), 2),
            )
            audit.verdict = "cancelled"
            audit.cancelled_task_key = task.key
            audit.cancelled_op_name = task.op_name
        else:
            c.decision_log.record(
                now,
                DecisionKind.CANCEL_BLOCKED,
                f"cancel of {task.op_name!r} blocked",
                in_cooldown=c.cancellation.in_cooldown,
            )
            audit.verdict = "cancel-blocked"
            audit.blocked_reason = (
                "cooldown" if c.cancellation.in_cooldown else "task-state"
            )
        self._finish_audit(audit)

    # ------------------------------------------------------------------
    # Decision-audit trail
    # ------------------------------------------------------------------
    def _start_audit(
        self, now: float, sample, oldest_age: float, assessment
    ) -> DecisionAudit:
        """Snapshot the evidence behind this detection cycle.

        The candidates go into flat columns (:class:`CandidateColumns`);
        the audit rounds and ranks them only when read."""
        c = self.controller
        reports = assessment.tasks
        columns = NO_CANDIDATES
        if reports:
            tasks = [report.task for report in reports]
            names = tuple(
                sorted({r.resource.name for r in assessment.resources})
            )
            # One shared name tuple per resource set, not one per audit.
            names = self._gain_names.setdefault(names, names)
            column = {name: i for i, name in enumerate(names)}
            width = len(names)
            gains = array("d", [_NO_GAIN]) * (width * len(reports))
            for row, report in enumerate(reports):
                start = row * width
                for resource, gain in report.gains.items():
                    gains[start + column[resource.name]] = gain
            columns = CandidateColumns(
                keys=[task.key for task in tasks],
                op_names=[task.op_name for task in tasks],
                client_ids=[task.client_id for task in tasks],
                kinds=[task.kind.value for task in tasks],
                cancellable=[task.cancellable for task in tasks],
                ages=array("d", [task.age for task in tasks]),
                progress=array("d", [report.progress for report in reports]),
                # The contention-weighted scalarization every policy's
                # ranking evidence is reported in (§3.5), whether or not
                # the active policy ultimately used it.
                scores=array(
                    "d", [assessment.score(report) for report in reports]
                ),
                gain_names=names,
                gains=gains,
            )
        return DecisionAudit(
            time=now,
            detector=DetectorSignal(
                tail_latency=sample.tail_latency if sample else None,
                throughput=sample.throughput if sample else None,
                samples=sample.samples if sample else None,
                oldest_inflight_age=oldest_age,
            ),
            resources=[
                ResourceEvidence(
                    resource=r.resource.name,
                    rtype=r.resource.rtype.value,
                    contention_raw=round(r.contention_raw, 9),
                    contention_norm=round(r.contention_norm, 9),
                    threshold=c.config.contention_threshold,
                    overloaded=r.overloaded,
                    concentrated=r.concentrated,
                    gain_skew=r.gain_skew
                    if r.gain_skew != float("inf")
                    else -1.0,
                )
                for r in assessment.resources
            ],
            columns=columns,
            verdict="pending",
        )

    def _finish_audit(self, audit: DecisionAudit) -> None:
        """Record the audit; a traced run's ``decision`` instant refers
        to it, and the trace renders its payload when read (what
        ``tracer.audits`` returns)."""
        c = self.controller
        c.decision_log.record_audit(audit)
        tracer = c.env.tracer
        if tracer.enabled:
            tracer.instant(
                audit.time,
                "decision",
                f"{audit.verdict}"
                + (
                    f" {audit.cancelled_op_name}#{audit.cancelled_task_key}"
                    if audit.verdict == "cancelled"
                    else ""
                ),
                "atropos:decisions",
                audit=audit,
            )


class CancelLever(MitigationLever):
    """Targeted task cancellation -- the paper's mitigation, the default.

    Behaviour (decision-log records, audit contents, cancellation
    manager interaction) is byte-identical to the action stage that
    predates the lever registry; fig9/fig13 regression-gate this.
    """

    name = "cancellation"
    lever_name = "cancel"

    def _apply(self, now, assessment, hottest, culprit_resource, audit):
        self._apply_cancel(now, assessment, hottest, audit)


class LockScheduleLever(MitigationLever):
    """Malthusian lock-queue reshaping: park the culprit's waiters.

    On a resource-overload verdict, identify the culprit op-class (the
    same ranking evidence cancellation uses) and passivate its queued
    waiters on the culprit lock(s).  Victims overtake at the culprit's
    chunk boundaries; parked waiters are readmitted by the lock's own
    idle trickle -- one per idle moment, the Malthusian promotion rule
    -- so the storm drains serially instead of re-forming its convoy
    (an eager readmit-all on the first calm window would oscillate:
    park, calm, re-convoy, park, ...).  The culprit tasks are never
    cancelled -- their work completes late instead of being lost.
    """

    name = "lock-reshape"
    lever_name = "lock_reshape"

    def __init__(self, controller: "Atropos") -> None:
        super().__init__(controller)
        #: handle -> the SyncLocks behind it, read from the bound
        #: application's resource registry (the lever keeps the locks,
        #: not the application, which holds the controller).
        self._locks: Dict[ResourceHandle, List["SyncLock"]] = {}

    def bind(self, app: "Application") -> None:
        from ..sim.resources.lock import SyncLock

        self._locks = {}
        for handle in self.controller.resources.values():
            locks = [
                sim for sim in app.resources(handle)
                if isinstance(sim, SyncLock)
            ]
            if locks:
                self._locks[handle] = locks

    def _app_locks(self, handle: ResourceHandle) -> List["SyncLock"]:
        """The bound app's SyncLocks behind ``handle``.

        A culprit handle that stands for something else (a pool, a
        queue) has none, and neither has an unbound lever.
        """
        return list(self._locks.get(handle, ()))

    # -- culprit identification ---------------------------------------
    def _culprit_op(
        self, assessment, audit
    ) -> Tuple[Optional[str], Optional[Tuple[Any, float]]]:
        """The op-class to park: the policy's pick, else the top-ranked
        candidate (a non-cancellable culprit's waiters are still
        parkable -- that is the lever's whole advantage)."""
        selection = self.controller.policy.select(assessment)
        if selection is not None:
            task, score = selection
            audit.select(task.key, score)
            return task.op_name, selection
        return audit.top_op_name(), None

    def _parkable(self, culprit_resource, op_name: str) -> int:
        """How many culprit-class waiters a reshape would park right now."""
        count = 0
        for lock in self._app_locks(culprit_resource.resource):
            for grant in lock._waiters:
                if getattr(grant.owner, "op_name", None) == op_name:
                    count += 1
        return count

    # -- the mitigation ------------------------------------------------
    def _apply(self, now, assessment, hottest, culprit_resource, audit):
        op_name, _selection = self._culprit_op(assessment, audit)
        self._apply_reshape(now, culprit_resource, op_name, audit)

    def _apply_reshape(self, now, culprit_resource, op_name, audit) -> None:
        c = self.controller
        audit.lever = self.lever_name
        if op_name is None or culprit_resource is None:
            c.decision_log.record(
                now, DecisionKind.LEVER, "no culprit op-class to park",
                lever=self.lever_name,
            )
            audit.verdict = "lever-noop"
            self._finish_audit(audit)
            return
        parked = 0
        for lock in self._app_locks(culprit_resource.resource):
            parked += lock.reshape_queue(
                lambda grant: getattr(grant.owner, "op_name", None)
                == op_name
            )
        if parked:
            c.decision_log.record(
                now,
                DecisionKind.LEVER,
                f"parked {parked} {op_name!r} waiter(s)",
                lever=self.lever_name,
                resource=culprit_resource.resource.name,
            )
            audit.verdict = "lock-reshaped"
            audit.cancelled_op_name = None
        else:
            c.decision_log.record(
                now,
                DecisionKind.LEVER,
                f"no parkable {op_name!r} waiters",
                lever=self.lever_name,
                resource=culprit_resource.resource.name,
            )
            audit.verdict = "lever-noop"
        self._finish_audit(audit)

    # -- unwind --------------------------------------------------------
    # Deliberately no _on_calm reactivation: parked waiters drain
    # through the lock's idle trickle (one per idle moment), which
    # self-limits -- a readmitted chunk-wise culprit keeps the lock busy
    # and thereby blocks further promotions until it finishes.  A lock
    # saturated by victim traffic keeps its parked storm parked; that is
    # the Malthusian trade, and admitting the storm would only make the
    # saturation worse.


class CompositeLever(LockScheduleLever):
    """Audited per-decision lever choice: reshape when it can act, else cancel.

    The choice rule is deliberately simple and legible: if the culprit
    resource is a lock and the culprit op-class has parkable waiters
    right now, reshape the queue; otherwise fall back to targeted
    cancellation.  Each choice is recorded as a
    :attr:`DecisionKind.LEVER` event before the chosen mitigation runs.
    """

    name = "composite"
    lever_name = "composite"

    def _apply(self, now, assessment, hottest, culprit_resource, audit):
        c = self.controller
        op_name, _selection = self._culprit_op(assessment, audit)
        use_reshape = (
            op_name is not None
            and culprit_resource is not None
            and culprit_resource.resource.rtype is ResourceType.LOCK
            and self._parkable(culprit_resource, op_name) > 0
        )
        chosen = "lock_reshape" if use_reshape else "cancel"
        c.decision_log.record(
            now,
            DecisionKind.LEVER,
            f"lever choice -> {chosen}",
            lever=self.lever_name,
            resource=culprit_resource.resource.name
            if culprit_resource
            else None,
            op=op_name,
        )
        audit.lever = chosen
        if use_reshape:
            self._apply_reshape(now, culprit_resource, op_name, audit)
        else:
            self._apply_cancel(now, assessment, hottest, audit)


#: Registry: lever name -> lever class (insertion order is report order).
LEVERS: Dict[str, type] = {
    "cancel": CancelLever,
    "lock_reshape": LockScheduleLever,
    "composite": CompositeLever,
}

#: The valid ``AtroposConfig.lever`` / ``RunSpec.lever`` values.
LEVER_NAMES: Tuple[str, ...] = tuple(LEVERS)


def resolve_lever(name: str) -> type:
    """Look up a lever class by registry name.

    Raises ``KeyError`` naming the known levers for an unknown name.
    """
    try:
        return LEVERS[name]
    except KeyError:
        raise KeyError(
            f"unknown lever {name!r}; known levers: {', '.join(LEVERS)}"
        ) from None
