"""PARTIES baseline [Chen et al., ASPLOS '19].

PARTIES partitions resources among co-located services and incrementally
shifts allocations toward whoever violates QoS.  Integrated at the client
level (as the paper does in §5.2): each client gets a concurrency
allocation; a monitor shrinks the allocation of clients that consume the
most while the SLO is violated and slowly restores allocations when
things are healthy.

PARTIES never drops an executing request, so a culprit already holding a
resource keeps it; throttled clients simply queue at admission.

Control loop: a :class:`~repro.core.pipeline.WindowedController` whose
per-window step (:meth:`Parties.act`) is the shrink / restore / decay of
the per-client allocations against the window's p99.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..core.pipeline import WindowedController
from ..core.task import CancellableTask

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class Parties(WindowedController):
    """Per-client incremental resource partitioning."""

    name = "parties"
    adjust_period = 0.5
    #: Every client's starting (and restored-to) concurrency allocation.
    initial_limit = 64
    #: The smallest allocation a shrink leaves a client.
    min_limit = 1

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        super().__init__(env)
        self.slo_latency = slo_latency
        #: client -> concurrency allocation.
        self.limits: Dict[str, int] = {}
        #: client -> currently executing requests.
        self.inflight: Dict[str, int] = {}
        #: client -> cumulative busy time (usage signal).
        self.busy_time: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Admission by per-client allocation
    # ------------------------------------------------------------------
    def _limit(self, client_id: str) -> int:
        return self.limits.setdefault(client_id, self.initial_limit)

    def admit(self, op_name: str, client_id: str) -> bool:
        limit = self._limit(client_id)
        if self.inflight.get(client_id, 0) >= limit:
            self.rejections += 1
            return False
        return True

    def create_cancel(self, *args, **kwargs) -> CancellableTask:
        task = super().create_cancel(*args, **kwargs)
        client = task.client_id
        self._limit(client)  # ensure the client has an allocation entry
        self.inflight[client] = self.inflight.get(client, 0) + 1
        return task

    def free_cancel(self, task: CancellableTask) -> None:
        if task.seq in self.tasks:
            client = task.client_id
            self.inflight[client] = max(0, self.inflight.get(client, 0) - 1)
            self.busy_time[client] = (
                self.busy_time.get(client, 0.0) + task.age
            )
        super().free_cancel(task)

    # ------------------------------------------------------------------
    # Monitoring and adjustment
    # ------------------------------------------------------------------
    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """Shift concurrency allocations away from the heaviest client."""
        # nan (an empty window) compares False: no violation.
        self.last_violation = signals["tail_latency"] > self.slo_latency
        if self.last_violation:
            clients = [cl for cl in self.limits if self.inflight.get(cl, 0)]
            if not clients:
                # Violation with nobody executing: nothing to shrink,
                # and (historically) no decay either this window.
                return
            heaviest = max(clients, key=self._usage_score)
            self.limits[heaviest] = max(
                self.min_limit, self._limit(heaviest) // 2
            )
        else:
            # Healthy: slowly restore allocations.
            for client in list(self.limits):
                if self.limits[client] < self.initial_limit:
                    self.limits[client] += 1
        # Usage scores decay each window so history does not dominate.
        for client in list(self.busy_time):
            self.busy_time[client] *= 0.5

    def _usage_score(self, client_id: str) -> float:
        """Busy-time so far plus the live tasks' elapsed time."""
        score = self.busy_time.get(client_id, 0.0)
        for task in self.tasks.values():
            if task.alive and task.client_id == client_id:
                score += task.age
        return score
