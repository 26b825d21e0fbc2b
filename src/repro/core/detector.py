"""Overload detection (paper §3.3).

The detector follows the Breakwater-style signal: it periodically inspects
recent end-to-end completions; when tail latency exceeds the SLO while
throughput stays flat, it flags *potential* overload.  The estimator then
decides whether a specific application resource is the bottleneck
(resource overload -> cancellation) or not (regular overload -> delegate).

Fault injection: :attr:`OverloadDetector.fault_tap` (default ``None``)
is a callable ``(now, tail_latency) -> tail_latency`` installed by
:mod:`repro.faults` to corrupt the tail-latency signal -- noise, lag,
bias -- before the overload condition is evaluated.  The recorded
:class:`DetectionSample` (:attr:`OverloadDetector.last`) carries the
*corrupted* value, exactly as a production detector would log what it
believed it saw.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from .config import AtroposConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.metrics import RequestRecord

from ..sim.metrics import SlidingWindow


@dataclass
class DetectionSample:
    """One detector observation."""

    time: float
    throughput: float
    tail_latency: float
    samples: int
    overloaded: bool


@dataclass
class LiveThresholds:
    """Detector thresholds an :class:`~repro.core.pipeline.
    AdaptationPolicy` may move at runtime.

    Initialized from the static :class:`AtroposConfig` values; under
    fixed thresholds (the default) they never change, so the detector
    behaves exactly as it did before thresholds became live.
    """

    slo_slack: float
    detection_window: float


class OverloadDetector:
    """Latency-over-SLO + flat-throughput detector.

    Fault-injection hook: :attr:`fault_tap`, a callable
    ``(now, tail_latency) -> tail_latency`` applied to the measured tail
    before the overload condition is evaluated (``None`` = clean signal).
    """

    def __init__(self, env: "Environment", config: AtroposConfig) -> None:
        self.env = env
        self.config = config
        #: Live (adaptable) thresholds; equal to the config until an
        #: adaptation policy moves them.
        self.live = LiveThresholds(
            slo_slack=config.slo_slack,
            detection_window=config.detection_window,
        )
        self.window = SlidingWindow(horizon=config.detection_window)
        #: Signal-corruption tap installed by :mod:`repro.faults`.
        self.fault_tap = None
        #: (time, throughput) samples for growth comparison over the full
        #: detection window -- adjacent-period comparison is too noisy and
        #: reads a flushing backlog as "growing" traffic.
        self._throughput_history: Deque[Tuple[float, float]] = deque()
        #: The latest :meth:`check`'s sample (None before the first).
        self.last: Optional[DetectionSample] = None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def observe_completion(self, record: "RequestRecord") -> None:
        if record.completed:
            self.window.observe(record.finish_time, record.latency)

    def telemetry_snapshot(self) -> dict:
        """Latest detector observation for the telemetry scraper."""
        last = self.last
        if last is None:
            return {
                "overloaded": 0.0,
                "tail_latency": float("nan"),
                "throughput": 0.0,
                "samples": 0,
            }
        return {
            "overloaded": 1.0 if last.overloaded else 0.0,
            "tail_latency": last.tail_latency,
            "throughput": last.throughput,
            "samples": last.samples,
        }

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def latency_limit(self) -> float:
        return self.config.slo_latency * self.live.slo_slack

    def set_detection_window(self, seconds: float) -> None:
        """Move the live detection window (adaptation hook).

        Also resizes the completion window's horizon; shrinking evicts
        immediately, widening simply lets the window fill further.
        """
        self.live.detection_window = seconds
        self.window.horizon = seconds

    def set_slo_slack(self, slack: float) -> None:
        """Move the live tail-latency trigger (adaptation hook)."""
        self.live.slo_slack = slack

    def _reference_throughput(self, now: float) -> Optional[float]:
        """Throughput observed roughly a detection window ago."""
        if not self._throughput_history:
            return None
        return self._throughput_history[0][1]

    def check(self, oldest_inflight_age: float = 0.0) -> bool:
        """Evaluate the overload condition now; records a sample.

        Args:
            oldest_inflight_age: age of the oldest still-executing request.
                This head-of-line signal makes a *complete stall* visible:
                when victims never finish, the completion window only holds
                fast unaffected requests and tail latency alone looks
                healthy.
        """
        now = self.env.now
        cfg = self.config
        throughput = self.window.throughput(now)
        samples = self.window.count(now)
        tail = self.window.latency_percentile(now, cfg.latency_percentile)
        if self.fault_tap is not None:
            tail = self.fault_tap(now, tail)

        tail_violated = (
            samples >= cfg.min_window_samples
            and not math.isnan(tail)
            and tail > self.latency_limit()
        )
        hol_violated = oldest_inflight_age > self.latency_limit()
        overloaded = False
        if tail_violated or hol_violated:
            reference = self._reference_throughput(now)
            if reference is None or reference <= 0:
                # No growth baseline: a latency violation alone counts.
                throughput_flat = True
            else:
                growth = (throughput - reference) / reference
                throughput_flat = growth < cfg.flat_throughput_margin
            overloaded = throughput_flat
        self._throughput_history.append((now, throughput))
        cutoff = now - self.live.detection_window
        while (
            len(self._throughput_history) > 1
            and self._throughput_history[0][0] < cutoff
        ):
            self._throughput_history.popleft()
        self.last = DetectionSample(
            time=now,
            throughput=throughput,
            tail_latency=tail,
            samples=samples,
            overloaded=overloaded,
        )
        return overloaded
