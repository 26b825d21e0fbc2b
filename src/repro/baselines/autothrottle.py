"""Autothrottle-style bi-level latency control [Wang et al., NSDI '24].

Autothrottle (arxiv 2212.12180) splits SLO management in two: a
lightweight **fast loop** per service tracks a local latency target by
throttling the service's CPU allocation, while a global **slow loop**
("the tower") watches end-to-end SLO attainment and redistributes the
per-service targets.  The simulation analogue of a CFS-quota throttle
is the application's worker pool: the fast loop resizes the widest
:class:`~repro.sim.resources.threadpool.ThreadPool` on the bound app
(queueing, never killing, excess work).  Backends without a pool
(PostgreSQL's lock/disk model) are squeezed with per-checkpoint
throttle delays instead.

The fast loop is the per-window step of a
:class:`~repro.core.pipeline.WindowedController`
(:meth:`Autothrottle.act`; the pool is picked once, in
:meth:`Autothrottle.bind`); the slow loop
(:class:`AutothrottleTower`) lives wherever the global view lives --
the mesh epoch loop runs it in the coordinator's slow-loop seat and
delivers new targets to each service as epoch-boundary directives
(:meth:`Autothrottle.set_target`).

Like DAGOR it never cancels: an in-flight culprit keeps its resources,
and throttling stretches *everyone's* service time -- which is exactly
the contrast `experiments/dag_overload.py` measures against targeted
cancellation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.pipeline import WindowedController
from ..sim.resources.threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..core.task import CancellableTask
    from ..sim.environment import Environment


#: Every service's initial local latency target, as a share of the SLO
#: (the fast loop starts there; the tower moves it).
INITIAL_TARGET_FRACTION = 0.8


class Autothrottle(WindowedController):
    """Per-service fast-loop throttle with a settable latency target."""

    name = "autothrottle"
    adjust_period = 0.2
    min_workers = 1
    #: Multiplicative shrink of the concurrency limit on a breach.
    shrink = 0.6
    #: Grow back only while the tail is below this share of the target.
    relax_fraction = 0.7

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        super().__init__(env)
        self.slo_latency = slo_latency
        #: The local latency target the tower redistributes.
        self.target = INITIAL_TARGET_FRACTION * slo_latency
        #: Bound worker pool (None for pool-less backends).
        self.pool: Optional[ThreadPool] = None
        self.nominal_workers = 16
        self.limit = self.nominal_workers
        #: Checkpoint squeeze for pool-less backends, seconds.
        self.squeeze_delay = 0.0
        self.base_squeeze = slo_latency / 100.0
        self.max_squeeze = slo_latency / 2.0
        self.resize_moves = 0
        self.target_moves = 0

    def set_target(self, target: float) -> None:
        """Slow-loop entry point: the tower moved this service's target."""
        target = max(1e-6, float(target))
        if target != self.target:
            self.target = target
            self.target_moves += 1

    def bind(self, app) -> None:
        """Pick the app's widest worker pool as the throttle."""
        pools = [
            sim for sim in app.resources()
            if isinstance(sim, ThreadPool)
        ]
        if pools:
            self.pool = max(pools, key=lambda p: p.nominal_workers)
            self.nominal_workers = self.pool.nominal_workers
            self.limit = self.nominal_workers

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """The fast loop: track the target by squeezing workers.

        Window tail above the target: multiplicative shrink of the
        concurrency limit.  Comfortably below (or no samples): grow back
        one worker at a time toward the pool's nominal size.
        """
        tail = signals["tail_latency"]  # nan for an empty window
        if tail > self.target:
            self.last_violation = True
            self.limit = max(self.min_workers, int(self.limit * self.shrink))
            if self.pool is None:
                self.squeeze_delay = min(
                    self.max_squeeze,
                    max(self.base_squeeze, self.squeeze_delay * 2.0),
                )
        elif tail != tail or tail < self.relax_fraction * self.target:
            self.last_violation = False
            self.limit = min(self.nominal_workers, self.limit + 1)
            self.squeeze_delay = (
                0.0 if self.squeeze_delay < self.base_squeeze
                else self.squeeze_delay * 0.5
            )
        if self.pool is not None and self.pool.workers != self.limit:
            self.pool.resize(self.limit)
            self.resize_moves += 1

    def throttle_delay(self, task: "CancellableTask") -> float:
        return self.squeeze_delay


class AutothrottleTower:
    """The global slow loop: redistribute per-service latency targets.

    Runs in the mesh coordinator's slow-loop seat, once per tower
    period (:attr:`repro.cluster.mesh._MeshDriver.tower_period`): when
    end-to-end victim p99 violates the SLO it tightens the target of
    the service currently showing the worst window tail (squeeze the
    latency where it lives); otherwise it relaxes every target back
    toward the SLO.
    """

    name = "autothrottle-tower"
    #: The end-to-end p99 violates the SLO above ``slo_latency * slack``.
    slack = 1.5
    #: Multiplicative tightening of the worst service's target.
    shrink = 0.7
    #: Multiplicative relaxing of every target while healthy.
    grow = 1.1

    def __init__(self, services: List[str], slo_latency: float) -> None:
        self.slo_latency = slo_latency
        self.floor = 0.05 * slo_latency
        self.cap = slo_latency
        self.targets: Dict[str, float] = {
            name: INITIAL_TARGET_FRACTION * slo_latency for name in services
        }
        self.moves: List[Dict[str, Any]] = []

    def update(
        self,
        epoch: int,
        t: float,
        e2e_p99: float,
        service_p99: Dict[str, float],
    ) -> Dict[str, float]:
        """One slow-loop pass; returns the (possibly moved) targets."""
        violated = e2e_p99 == e2e_p99 and (
            e2e_p99 > self.slo_latency * self.slack
        )
        if violated:
            worst, worst_p99 = None, -1.0
            for name in sorted(self.targets):
                p99 = service_p99.get(name, float("nan"))
                if p99 == p99 and p99 > worst_p99:
                    worst, worst_p99 = name, p99
            if worst is not None:
                self._move(epoch, t, worst,
                           max(self.floor, self.targets[worst] * self.shrink))
        else:
            for name in sorted(self.targets):
                self._move(epoch, t, name,
                           min(self.cap, self.targets[name] * self.grow))
        return dict(self.targets)

    def _move(self, epoch: int, t: float, name: str, target: float) -> None:
        if target == self.targets[name]:
            return
        self.targets[name] = target
        self.moves.append({
            "epoch": epoch,
            "t": round(t, 9),
            "service": name,
            "target": round(target, 9),
        })
