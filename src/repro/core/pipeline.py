"""The control-plane loop: signals -> adaptation -> action, on one process.

Every periodic overload controller in this repo -- ATROPOS and the
baselines that tick -- runs one loop: *observe* some signals about the
system, optionally *adapt* its own thresholds, then *act* (cancel, drop,
throttle, resize an admission pool).  :class:`ControlPipeline` owns that
loop and its single monitor process.  Who fills the seats differs:

* **ATROPOS composes stages.**  It has one to three
  :class:`SignalSource` objects (detector, health, history schedule;
  sampled in list order, so a later source may consume what an earlier
  one produced), an :class:`AdaptationPolicy` (default
  :class:`NoAdaptation`: fixed thresholds, the historical behaviour
  bit-for-bit) and one of three mitigation levers
  (:mod:`repro.core.levers`, whose base is :class:`ActionPolicy`).
* **A baseline is one class.**  Each has exactly one fixed composition,
  so it passes *itself* as the action and keeps its per-window step as
  its own ``act(now, signals)``.  The five that watch a latency window
  (SEDA, Breakwater, PARTIES, DAGOR, Autothrottle) share
  :class:`WindowedController`, which owns the
  :class:`LatencyWindowSource`, the pipeline and the detector-style
  telemetry; Protego and pBox pass themselves with no source at all.
  DARC acts once, in ``bind(app)``, and has no pipeline.

The tick order is **sample -> adapt -> act -> roll**: an adaptation
reads the window that just closed and moves thresholds for the *next*
window, mirroring the bi-level designs of Autothrottle and DAGOR where
slow target tuning sits above the fast per-window controller.

None of the stage calls touches the event queue -- only the pipeline's
own ``timeout(period)`` does -- so restructuring a controller onto the
pipeline cannot perturb simulation scheduling.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

from ..sim.metrics import SlidingWindow
from .controller import BaseController

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.metrics import RequestRecord


class SignalSource:
    """One producer of per-window observations.

    Subclasses override :meth:`sample`; the end-of-tick :meth:`roll`
    hook is optional.  A source that reads completions is fed them by
    the controller that owns it, which knows which of its stages do.
    """

    name = "signal"

    def sample(self, now: float, signals: Dict[str, Any]) -> None:
        """Write this window's observations into ``signals``.

        Sources run in pipeline order and share one map, so keys written
        by earlier sources are readable here.
        """
        raise NotImplementedError

    def roll(self, now: float) -> None:
        """End-of-tick bookkeeping (e.g. roll a usage ledger window)."""


class AdaptationPolicy:
    """Between-window adjustment of live thresholds (the slow loop)."""

    name = "adaptation"
    #: Threshold moves made so far; a policy that moves none keeps 0.
    adaptations = 0

    def adapt(self, now: float, signals: Dict[str, Any]) -> None:
        raise NotImplementedError


class NoAdaptation(AdaptationPolicy):
    """Fixed thresholds: the default, and the historical behaviour."""

    name = "fixed"

    def adapt(self, now: float, signals: Dict[str, Any]) -> None:
        return None


class ActionPolicy:
    """Base of the mitigation levers: the stage ATROPOS swaps per config.

    The pipeline itself only needs ``act(now, signals)`` of its action,
    which is why a baseline can sit in this seat as itself.
    """

    name = "action"

    def bind(self, app) -> None:
        """One-time configuration against the application (its resource
        registry); called from :meth:`Atropos.bind`."""

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        raise NotImplementedError


class ControlPipeline:
    """One periodic monitor process running sample -> adapt -> act -> roll.

    Args:
        env: simulation environment.
        period: seconds between ticks.
        sources: signal sources, sampled in order each tick.
        adaptation: threshold adaptation stage (default: fixed).
        action: anything with ``act(now, signals)`` -- a lever, or the
            controller itself (optional).  A controller in this seat owns
            the pipeline, and the pipeline refers back to it weakly: the
            two are not a reference cycle that outlives the run.
    """

    def __init__(
        self,
        env: "Environment",
        period: float,
        sources: Iterable[SignalSource] = (),
        adaptation: Optional[AdaptationPolicy] = None,
        action: Any = None,
    ) -> None:
        self.env = env
        self.period = period
        self.sources = list(sources)
        self.adaptation = adaptation or NoAdaptation()
        self._action = (
            weakref.ref(action)
            if isinstance(action, BaseController)
            else lambda: action
        )
        self._started = False

    @property
    def action(self) -> Any:
        """The action seat (``None`` when empty)."""
        return self._action()

    def start(self) -> None:
        """Launch the monitor process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._loop())

    def _loop(self):
        while True:
            yield self.env.timeout(self.period)
            self.tick()

    def tick(self) -> Dict[str, Any]:
        """Run one full pipeline pass at the current simulated time."""
        now = self.env.now
        signals: Dict[str, Any] = {}
        for source in self.sources:
            source.sample(now, signals)
        self.adaptation.adapt(now, signals)
        action = self._action()
        if action is not None:
            action.act(now, signals)
        for source in self.sources:
            source.roll(now)
        return signals


class LatencyWindowSource(SignalSource):
    """Shared sliding-window completion statistics.

    Feeds completed requests into a :class:`SlidingWindow` and exposes
    the window's throughput, sample count, mean, and tail percentile as
    signals (``throughput``, ``samples``, ``mean_latency``,
    ``tail_latency``; the latencies are nan for an empty window).
    """

    name = "latency-window"

    def __init__(
        self,
        env: "Environment",
        horizon: float = 1.0,
        percentile: float = 99,
    ) -> None:
        self.env = env
        self.percentile = percentile
        self.window = SlidingWindow(horizon=horizon)

    def observe_completion(self, record: "RequestRecord") -> None:
        if record.completed:
            self.window.observe(record.finish_time, record.latency)

    def sample(self, now: float, signals: Dict[str, Any]) -> None:
        signals["throughput"] = self.window.throughput(now)
        signals["samples"] = self.window.count(now)
        signals["mean_latency"] = self.window.mean_latency(now)
        signals["tail_latency"] = self.window.latency_percentile(
            now, self.percentile
        )

    def telemetry_snapshot(self) -> Dict[str, Any]:
        now = self.env.now
        return {
            "throughput": self.window.throughput(now),
            "samples": self.window.count(now),
            "tail_latency": self.window.latency_percentile(
                now, self.percentile
            ),
        }


class WindowedController(BaseController):
    """A baseline that is "window tail vs a target -> move one number".

    Sibling of :class:`~repro.core.runtime.TracingController`: the base
    of SEDA, Breakwater, PARTIES, DAGOR and Autothrottle.  It owns the
    completion window (1 s horizon, p99), the pipeline that ticks every
    :attr:`adjust_period` seconds with the controller itself in the
    action seat, and the detector-style telemetry the scraper reads.  A
    subclass sets :attr:`adjust_period`, implements :meth:`act`, sets
    :attr:`last_violation` there, and counts what its ``admit`` turns
    away in :attr:`rejections`.
    """

    #: Seconds between windows: a class constant of each subclass.
    adjust_period: float

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self.rejections = 0
        #: Whether the last window violated the controller's target.
        self.last_violation = False
        self._window_source = LatencyWindowSource(env)
        self.pipeline = ControlPipeline(
            env, self.adjust_period, sources=[self._window_source],
            action=self,
        )

    @property
    def window(self) -> SlidingWindow:
        return self._window_source.window

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """The per-window step, given the window's signals."""
        raise NotImplementedError

    def observe_completion(self, record: "RequestRecord") -> None:
        self._window_source.observe_completion(record)

    def start(self) -> None:
        self.pipeline.start()

    def telemetry_snapshot(self) -> Dict[str, Any]:
        snap = super().telemetry_snapshot()
        snap["detector"] = detector = self._window_source.telemetry_snapshot()
        detector["overloaded"] = 1.0 if self.last_violation else 0.0
        return snap
