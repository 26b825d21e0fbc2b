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

The fast loop is a plain pipeline stage
(:class:`AutothrottleResizeAction` driven by the shared
:class:`~repro.core.pipeline.LatencyWindowSource`); the slow loop
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

from ..core.controller import BaseController
from ..core.pipeline import ActionPolicy, ControlPipeline, LatencyWindowSource
from ..sim.resources.threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..core.task import CancellableTask
    from ..sim.environment import Environment
    from ..sim.metrics import RequestRecord


class AutothrottleResizeAction(ActionPolicy):
    """The per-service fast loop: track the target by squeezing workers.

    Window tail above the target: multiplicative shrink of the
    concurrency limit.  Comfortably below (or no samples): grow back
    one worker at a time toward the pool's nominal size.
    """

    name = "autothrottle-resize"

    def __init__(self, controller: "Autothrottle") -> None:
        self.controller = controller

    def bind(self, app) -> None:
        c = self.controller
        pools = [
            sim for sim in app.resources()
            if isinstance(sim, ThreadPool)
        ]
        if pools:
            c.pool = max(pools, key=lambda p: p.nominal_workers)
            c.nominal_workers = c.pool.nominal_workers
            c.limit = c.nominal_workers

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        c = self.controller
        tail = signals.get("tail_latency", float("nan"))
        has_sample = tail == tail
        if has_sample and tail > c.target:
            c.last_violation = True
            c.limit = max(c.min_workers, int(c.limit * c.shrink))
            if c.pool is None:
                c.squeeze_delay = min(
                    c.max_squeeze, max(c.base_squeeze, c.squeeze_delay * 2.0)
                )
        elif not has_sample or tail < c.relax_fraction * c.target:
            c.last_violation = False
            c.limit = min(c.nominal_workers, c.limit + 1)
            c.squeeze_delay = (
                0.0 if c.squeeze_delay < c.base_squeeze
                else c.squeeze_delay * 0.5
            )
        if c.pool is not None and c.pool.workers != c.limit:
            c.pool.resize(c.limit)
            c.resize_moves += 1
        signals["throttle_limit"] = c.limit


class Autothrottle(BaseController):
    """Per-service fast-loop throttle with a settable latency target."""

    name = "autothrottle"

    def __init__(
        self,
        env: "Environment",
        slo_latency: float = 0.05,
        adjust_period: float = 0.2,
        target: Optional[float] = None,
        min_workers: int = 1,
        shrink: float = 0.6,
        relax_fraction: float = 0.7,
    ) -> None:
        super().__init__(env)
        self.slo_latency = slo_latency
        #: The local latency target the tower redistributes.
        self.target = 0.8 * slo_latency if target is None else target
        self.min_workers = min_workers
        self.shrink = shrink
        self.relax_fraction = relax_fraction
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
        self.last_violation = False
        self._window_source = LatencyWindowSource(
            env, horizon=1.0, percentile=99
        )
        self.pipeline = ControlPipeline(
            env,
            period=adjust_period,
            sources=[self._window_source],
            action=AutothrottleResizeAction(self),
        )

    @property
    def window(self):
        """The completion window (owned by the pipeline's source)."""
        return self._window_source.window

    def set_target(self, target: float) -> None:
        """Slow-loop entry point: the tower moved this service's target."""
        target = max(1e-6, float(target))
        if target != self.target:
            self.target = target
            self.target_moves += 1

    def bind(self, app) -> None:
        self.pipeline.bind(app)

    def throttle_delay(self, task: "CancellableTask") -> float:
        return self.squeeze_delay

    def observe_completion(self, record: "RequestRecord") -> None:
        self.pipeline.observe_completion(record)

    def start(self) -> None:
        self.pipeline.start()

    def telemetry_snapshot(self) -> Dict[str, Any]:
        snap = super().telemetry_snapshot()
        detector = self._window_source.telemetry_snapshot()
        detector["overloaded"] = 1.0 if self.last_violation else 0.0
        snap["detector"] = detector
        snap["throttle"] = {
            "target": self.target,
            "limit": self.limit,
            "nominal_workers": self.nominal_workers,
            "squeeze_delay": self.squeeze_delay,
            "resize_moves": self.resize_moves,
            "target_moves": self.target_moves,
        }
        return snap


class AutothrottleTower:
    """The global slow loop: redistribute per-service latency targets.

    Runs in the mesh coordinator's slow-loop seat, once per
    ``tower_period``: when end-to-end victim p99 violates the SLO it
    tightens the target of the service currently showing the worst
    window tail (squeeze the latency where it lives); otherwise it
    relaxes every target back toward the SLO.
    """

    name = "autothrottle-tower"

    def __init__(
        self,
        services: List[str],
        slo_latency: float,
        slack: float = 1.5,
        shrink: float = 0.7,
        grow: float = 1.1,
    ) -> None:
        self.slo_latency = slo_latency
        self.slack = slack
        self.shrink = shrink
        self.grow = grow
        self.floor = 0.05 * slo_latency
        self.cap = slo_latency
        self.targets: Dict[str, float] = {
            name: 0.8 * slo_latency for name in services
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
