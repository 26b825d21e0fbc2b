"""SEDA-style adaptive admission control [Welsh & Culler, USITS '03].

Classic overload control from the design space of Figure 1: an AIMD rate
limiter at admission driven by observed tail latency.  It protects the
system from *demand* overload but is indiscriminate -- it cannot tell
culprit from victim, so under application resource overload it sheds
load across the board.

Control loop: a :class:`~repro.core.pipeline.WindowedController` whose
per-window step (:meth:`Seda.act`) is the AIMD update of the admission
rate against the window's p99.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..core.pipeline import WindowedController

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class Seda(WindowedController):
    """AIMD token-bucket admission keyed on tail latency."""

    name = "seda"
    adjust_period = 0.2
    #: Admission rate at start, requests per second.
    initial_rate = 1000.0
    min_rate = 10.0
    additive_increase = 25.0
    multiplicative_decrease = 0.7

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        super().__init__(env)
        self.slo_latency = slo_latency
        self.rate = self.initial_rate
        self._tokens = self.initial_rate * self.adjust_period
        self._last_refill = env.now

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """AIMD update of the admission rate keyed on the window tail."""
        # nan (an empty window) compares False: no violation.
        self.last_violation = signals["tail_latency"] > self.slo_latency
        if self.last_violation:
            self.rate = max(
                self.min_rate, self.rate * self.multiplicative_decrease
            )
        else:
            self.rate += self.additive_increase

    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            cap = self.rate * self.adjust_period
            self._tokens = min(cap, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def admit(self, op_name: str, client_id: str) -> bool:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.rejections += 1
        return False
