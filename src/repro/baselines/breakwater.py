"""Breakwater baseline [Cho et al., OSDI '20].

Credit-based admission control for microsecond-scale RPCs: the server
computes a credit pool from observed queueing delay against a target
(AQM-style additive-increase / multiplicative-decrease with
overcommitment) and clients may only issue requests while holding a
credit.  Effective against demand overload; blind to application
resource overload, since the global delay signal cannot say *which*
request monopolizes what (§2.2's critique).

The paper uses Breakwater's detector shape inside ATROPOS (§3.3) and
places the full system in Figure 1's design space; this implementation
completes the comparison set.

Control loop: a :class:`~repro.core.pipeline.WindowedController` whose
per-window step (:meth:`Breakwater.act`) is the credit AIMD against the
window's mean latency in excess of the service-time estimate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..core.pipeline import WindowedController
from ..core.task import CancellableTask

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class Breakwater(WindowedController):
    """Credit-based admission keyed on queueing delay."""

    name = "breakwater"

    def __init__(
        self,
        env: "Environment",
        target_delay: float = 0.02,
        adjust_period: float = 0.1,
        initial_credits: int = 64,
        min_credits: int = 4,
        max_credits: int = 4096,
        additive_increase: int = 4,
        multiplicative_decrease: float = 0.8,
        overcommit: float = 1.1,
    ) -> None:
        """
        Args:
            target_delay: queueing-delay target d_t; credits shrink when
                the observed delay exceeds it.
            overcommit: credits are slightly overcommitted relative to
                inflight demand so idle capacity is never stranded.
        """
        super().__init__(env, adjust_period)
        self.target_delay = target_delay
        self.adjust_period = adjust_period
        self.credits = float(initial_credits)
        self.min_credits = min_credits
        self.max_credits = max_credits
        self.additive_increase = additive_increase
        self.multiplicative_decrease = multiplicative_decrease
        self.overcommit = overcommit
        #: Requests currently holding a credit (executing).
        self.inflight = 0
        #: Sum of service-time estimates, for delay decomposition.
        self._service_estimate = 0.005

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """AIMD update of the credit pool keyed on queueing delay."""
        mean = signals["mean_latency"]
        if mean != mean:  # nan: no completions in the window
            delay = 0.0
        else:
            delay = max(0.0, mean - self._service_estimate)
        self.last_violation = delay > self.target_delay
        if self.last_violation:
            self.credits = max(
                float(self.min_credits),
                self.credits * self.multiplicative_decrease,
            )
        else:
            self.credits = min(
                float(self.max_credits),
                self.credits + self.additive_increase,
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, op_name: str, client_id: str) -> bool:
        limit = self.credits * self.overcommit
        if self.inflight < limit:
            return True
        self.rejections += 1
        return False

    def create_cancel(self, *args, **kwargs) -> CancellableTask:
        task = super().create_cancel(*args, **kwargs)
        self.inflight += 1
        return task

    def free_cancel(self, task: CancellableTask) -> None:
        if task.seq in self.tasks:
            self.inflight = max(0, self.inflight - 1)
        super().free_cancel(task)
