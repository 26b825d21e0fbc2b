"""Cancellation execution, cooldown, fairness, re-execution (§3.6, §4).

The manager invokes the application's registered cancellation initiator
(or the default process interrupt), enforces a minimum interval between
consecutive cancellations, and implements the fairness rules: each task is
cancelled at most once, cancelled requests are retried after sustained
resource availability (or dropped once they can no longer meet the SLO),
and background tasks are force-retried after a bounded wait.

Fault injection (:mod:`repro.faults` sets these attributes mid-run):

* :attr:`CancellationManager.initiator_delay` -- seconds between the
  cancel decision and initiator invocation (a slow kill path).  The task
  transitions to CANCELLING immediately (so it is not double-targeted)
  but keeps running until the delayed interrupt lands.
* :attr:`CancellationManager.drop_probability` -- each issued signal is
  lost in flight with this probability: :meth:`CancellationManager.cancel`
  still returns True (the controller believes it cancelled, and the
  cooldown applies), the event is logged with ``delivered=False``, and
  the task stays RUNNING and cancellable so a later cycle can re-target
  it.
* :attr:`CancellationManager.suspended` -- while True, no task is
  cancellable at all (``cancel()`` returns False).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from .config import AtroposConfig
from .task import CancelInitiator, CancellableTask, default_initiator
from .types import CancelSignal, ResourceHandle, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


@dataclass
class CancellationEvent:
    """Audit record of one executed cancellation.

    ``delivered`` is False when a fault-injected lossy initiator dropped
    the signal in flight (the decision was made but never reached the
    task); clean runs always record True.
    """

    time: float
    task_key: object
    op_name: str
    resource: Optional[ResourceHandle]
    score: float
    delivered: bool = True


class CancellationManager:
    """Executes cancel decisions and gates re-execution."""

    def __init__(
        self,
        env: "Environment",
        config: AtroposConfig,
        calm_check: Callable[[], bool],
    ) -> None:
        """
        Args:
            calm_check: callable returning True when no application
                resource is currently overloaded (sustained availability
                is judged by polling this).
        """
        self.env = env
        self.config = config
        self._calm_check = calm_check
        self._initiator: CancelInitiator = default_initiator
        self._last_cancel_time: Optional[float] = None
        self.log: List[CancellationEvent] = []
        # -- fault-injection state (set by repro.faults) ----------------
        #: Seconds between the cancel decision and initiator invocation.
        self.initiator_delay: float = 0.0
        #: Probability an issued signal is lost in flight (needs fault_rng).
        self.drop_probability: float = 0.0
        #: While True, cancel() refuses every request (un-cancellable
        #: stretch).
        self.suspended: bool = False
        #: Deterministic RNG stream used for signal drops.
        self.fault_rng = None
        #: Count of signals lost to the drop fault.
        self.dropped_signals: int = 0
        #: Count of signals that reached their task's initiator.
        self.delivered_signals: int = 0
        #: Count of signals routed through the slow-initiator path.
        self.delayed_signals: int = 0

    def telemetry_snapshot(self) -> dict:
        """Signal-outcome counters for the telemetry scraper."""
        return {
            "delivered": self.delivered_signals,
            "dropped": self.dropped_signals,
            "delayed": self.delayed_signals,
        }

    # ------------------------------------------------------------------
    # Initiator registration (setCancelAction)
    # ------------------------------------------------------------------
    def set_initiator(self, initiator: CancelInitiator) -> None:
        self._initiator = initiator

    # ------------------------------------------------------------------
    # Cooldown
    # ------------------------------------------------------------------
    @property
    def in_cooldown(self) -> bool:
        if self._last_cancel_time is None:
            return False
        return (
            self.env.now - self._last_cancel_time < self.config.cancel_cooldown
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def cancel(
        self,
        task: CancellableTask,
        resource: Optional[ResourceHandle],
        score: float,
        reason: str = "resource-overload",
    ) -> bool:
        """Cancel ``task``; returns False if blocked by cooldown/state.

        Fault injection can reshape the happy path: during an
        ``uncancellable`` window every call returns False; a lossy
        initiator (:attr:`drop_probability`) may lose the signal after
        the decision (returns True, logs ``delivered=False``, leaves the
        task running); a slow initiator (:attr:`initiator_delay`) defers
        the actual interrupt.
        """
        if not self.config.cancellation_enabled:
            return False
        if self.suspended:
            # Fault-injected un-cancellable stretch.
            return False
        if self.in_cooldown:
            return False
        if not task.cancellable:
            return False
        if task.requires_thread_cancel and not (
            self.config.allow_thread_level_cancel
        ):
            # The task has no application-level initiator; thread-level
            # cancellation is unsafe and disabled by default (§3.6).
            return False
        signal = CancelSignal(
            reason=reason,
            resource=resource,
            score=score,
            decided_at=self.env.now,
        )
        self._last_cancel_time = self.env.now
        if (
            self.drop_probability > 0.0
            and self.fault_rng is not None
            and self.fault_rng.chance(self.drop_probability)
        ):
            # Signal lost in flight: the decision stands (cooldown
            # stamped, event logged) but the task never hears it and
            # stays cancellable for a later cycle.
            self.dropped_signals += 1
            self.log.append(
                CancellationEvent(
                    time=self.env.now,
                    task_key=task.key,
                    op_name=task.op_name,
                    resource=resource,
                    score=score,
                    delivered=False,
                )
            )
            return True
        task.begin_cancel(signal)
        self.log.append(
            CancellationEvent(
                time=self.env.now,
                task_key=task.key,
                op_name=task.op_name,
                resource=resource,
                score=score,
            )
        )
        self.delivered_signals += 1
        if self.initiator_delay > 0.0:
            self.delayed_signals += 1
            self.env.process(
                self._delayed_initiate(task, signal, self.initiator_delay)
            )
        else:
            self._initiator(task, signal)
        return True

    def _delayed_initiate(self, task: CancellableTask, signal, delay: float):
        """Process generator: invoke the initiator ``delay`` seconds late.

        The task is already CANCELLING (so it is not re-targeted); if it
        finished on its own in the meantime, the late signal is a no-op.
        """
        yield self.env.timeout(delay)
        process = task.process
        if task.alive and process is not None and process.is_alive:
            self._initiator(task, signal)

    # ------------------------------------------------------------------
    # Re-execution gate (generator; driven by the workload driver)
    # ------------------------------------------------------------------
    def reexecution_gate(self, task: CancellableTask, arrival_time: float):
        """Wait for sustained availability; decide retry vs drop.

        Yields simulation events; returns ``"retry"`` or ``"drop"``.
        """
        env = self.env
        cfg = self.config
        if task.kind is TaskKind.BACKGROUND:
            # Minimum deferral first: a cancelled maintenance task must not
            # re-enter the instant its own absence makes the system calm.
            yield env.timeout(cfg.background_reexec_delay)
            deadline = env.now + cfg.background_max_wait
            while env.now < deadline:
                if self._stable_now():
                    stable = yield from self._await_stability(deadline)
                    if stable:
                        return "retry"
                else:
                    yield env.timeout(cfg.reexec_check_period)
            # Bounded wait expired: background tasks are always retried.
            return "retry"

        # User request: bounded by the SLO budget.
        budget_end = arrival_time + cfg.slo_latency * cfg.reexec_slo_multiple
        while env.now < budget_end:
            if self._stable_now():
                stable = yield from self._await_stability(budget_end)
                if stable:
                    return "retry"
            else:
                yield env.timeout(cfg.reexec_check_period)
        return "drop"

    def _stable_now(self) -> bool:
        return self._calm_check()

    def _await_stability(self, deadline: float):
        """Hold calm for the stability window; returns True if it held."""
        env = self.env
        window_end = env.now + self.config.reexec_stability_window
        while env.now < window_end:
            if env.now >= deadline:
                return False
            yield env.timeout(
                min(self.config.reexec_check_period, window_end - env.now)
            )
            if not self._calm_check():
                return False
        return True
