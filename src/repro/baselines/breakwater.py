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

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class Breakwater(WindowedController):
    """Credit-based admission keyed on queueing delay."""

    name = "breakwater"
    adjust_period = 0.1
    initial_credits = 64
    min_credits = 4
    max_credits = 4096
    additive_increase = 4
    multiplicative_decrease = 0.8
    #: Credits are slightly overcommitted relative to inflight demand
    #: so idle capacity is never stranded.
    overcommit = 1.1

    def __init__(self, env: "Environment", target_delay: float = 0.02) -> None:
        super().__init__(env)
        #: Queueing-delay target d_t; credits shrink when the observed
        #: delay exceeds it.
        self.target_delay = target_delay
        self.credits = float(self.initial_credits)
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
        """Admit while the requests holding a credit (the listed
        tasks) are below the overcommitted credit pool."""
        limit = self.credits * self.overcommit
        if len(self.tasks) < limit:
            return True
        self.rejections += 1
        return False
