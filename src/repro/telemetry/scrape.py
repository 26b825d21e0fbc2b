"""Sim-time scraping: sample every layer into the registry per window.

The :class:`Scraper` is a simulation process that wakes every
``interval`` simulated seconds and pulls state from each layer of an
assembled run -- the kernel (event-queue depth, processes alive), every
resource exposing ``telemetry_snapshot()``, the workload driver
(offered/completed/cancelled per op), the controller (detector trigger
state, blame scores, cancellation signals), and the fault injector
(active faults).  Pull-based scraping keeps the hot path untouched:
when no telemetry session is active nothing here runs at all, matching
the ``NullTracer`` fast-path discipline.

Each scrape produces one :class:`ScrapeWindow` (a flat, deterministic
value map), updates the run's :class:`~repro.telemetry.registry.
MetricsRegistry`, and feeds the window to the
:class:`~repro.telemetry.health.HealthMonitor`; fired
:class:`~repro.telemetry.health.HealthEvent` instances are mirrored
into the obs trace.  The controller's own state is only read: a scraped
run's payload equals the unobserved run's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import RequestStatus, percentile
from .health import HealthEvent, HealthMonitor, HealthRule, worst_severity
from .registry import MetricsRegistry


class ScrapeWindow:
    """One scrape: window end time + the flat value map sampled there."""

    __slots__ = ("t", "values", "health")

    def __init__(self, t: float, values: Dict[str, float]) -> None:
        self.t = t
        self.values = values
        #: Health events fired in this window (set by the scraper).
        self.health: List[HealthEvent] = []


class RunTelemetry:
    """Everything telemetry collected for one simulation run."""

    def __init__(self, label: str, interval: float) -> None:
        self.label = label
        self.interval = interval
        self.registry = MetricsRegistry()
        self.windows: List[ScrapeWindow] = []
        self.health_events: List[HealthEvent] = []
        #: Fault injector events (dicts), filled at finalize.
        self.fault_events: List[Dict[str, Any]] = []
        #: Decision-audit payloads (dicts), filled at finalize.
        self.audits: List[Dict[str, Any]] = []
        self.duration = 0.0
        #: Names of the resources that were scraped (report ordering).
        self.resource_names: List[str] = []

    def series(self, key: str) -> List[Tuple[float, float]]:
        """(t, value) pairs of one window-value key across all windows."""
        return [
            (w.t, w.values[key]) for w in self.windows if key in w.values
        ]


def live_line(run: RunTelemetry, window: ScrapeWindow) -> str:
    """One compact TTY dashboard line for a scrape window."""
    v = window.values
    p99 = v.get("p99", float("nan"))
    p99_txt = f"{p99 * 1000:6.1f}ms" if p99 == p99 else "      --"
    utils = [
        (key[5:], val) for key, val in v.items() if key.startswith("util:")
    ]
    hottest = max(utils, key=lambda item: item[1]) if utils else None
    hot_txt = (
        f"  hot={hottest[0]}:{hottest[1]:.2f}" if hottest else ""
    )
    health = worst_severity(window.health)
    health_txt = f"  !{health}" if health else ""
    return (
        f"[{run.label}] t={window.t:7.2f}s "
        f"tput={v.get('throughput', 0.0):7.1f}/s p99={p99_txt} "
        f"q={int(v.get('event_queue_depth', 0)):4d} "
        f"cancels={int(v.get('cancels_total', 0)):3d}"
        f"{hot_txt}{health_txt}"
    )


class Scraper:
    """Periodically samples an assembled run into a :class:`RunTelemetry`."""

    def __init__(
        self,
        env: Any,
        run: RunTelemetry,
        rules: Sequence[HealthRule],
        slo: Optional[float] = None,
        live_sink: Optional[Callable[[RunTelemetry, ScrapeWindow], None]]
        = None,
    ) -> None:
        self.env = env
        self.run = run
        self.monitor = HealthMonitor(rules)
        self.slo = slo
        self.live_sink = live_sink
        self._app: Any = None
        self._driver: Any = None
        self._controller: Any = None
        self._faults: Any = None
        #: The app's registered resources, sorted by resource name.
        self._resources: List[Any] = []
        #: (resource name, snapshot key) -> registry child.
        self._series: Dict[Tuple[str, str], Any] = {}
        self._last_t = 0.0
        # Incremental cursors / previous cumulative values.
        self._record_idx = 0
        self._cancel_log_idx = 0
        self._prev: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        app: Any = None,
        driver: Any = None,
        controller: Any = None,
        faults: Any = None,
    ) -> None:
        """Bind the run's components; lists the app's registered resources."""
        self._app = app
        self._driver = driver
        self._controller = controller
        self._faults = faults
        self._resources = sorted(
            app.resources() if app is not None else (),
            key=lambda sim: sim.name,
        )
        self.run.resource_names = [sim.name for sim in self._resources]

    def start(self) -> None:
        """Spawn the scrape loop as a simulation process."""
        self.env.process(self._loop())

    def _loop(self):
        interval = self.run.interval
        while True:
            yield self.env.timeout(interval)
            self.scrape()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _counter_delta(self, key: str, total: float) -> float:
        """Delta since the previous scrape of a cumulative value."""
        prev = self._prev.get(key, 0.0)
        self._prev[key] = total
        return total - prev

    def scrape(self) -> ScrapeWindow:
        """Sample every attached layer; returns the new window."""
        env = self.env
        reg = self.run.registry
        now = env.now
        elapsed = now - self._last_t
        values: Dict[str, float] = {}

        # -- sim kernel ------------------------------------------------
        qdepth = float(getattr(env, "queue_depth", 0))
        alive = float(getattr(env, "alive_processes", 0))
        values["event_queue_depth"] = qdepth
        values["processes_alive"] = alive
        reg.gauge("repro_event_queue_depth",
                  "Scheduled events in the kernel heap").set(qdepth)
        reg.gauge("repro_processes_alive",
                  "Live simulated processes").set(alive)
        reg.counter("repro_scrapes_total", "Telemetry scrapes taken").inc()

        # -- workload driver -------------------------------------------
        self._scrape_driver(values, elapsed)

        # -- resources -------------------------------------------------
        for resource in self._resources:
            name = resource.name
            snap = resource.telemetry_snapshot()
            for key in sorted(snap):
                val = float(snap[key])
                if key.endswith("_total"):
                    delta = self._counter_delta(f"res:{name}:{key}", val)
                    if delta > 0:
                        self._resource_series(
                            reg.counter, "Per-resource cumulative total",
                            name, key,
                        ).inc(delta)
                else:
                    self._resource_series(
                        reg.gauge, "Per-resource level", name, key
                    ).set(val)
                if key in ("utilization", "queue_depth"):
                    short = "util" if key == "utilization" else "qdepth"
                    values[f"{short}:{name}"] = val

        # -- controller (detector / estimator / cancellation) ----------
        self._scrape_controller(values)

        # -- fault injector --------------------------------------------
        self._scrape_faults(values)

        # -- health ----------------------------------------------------
        window = ScrapeWindow(now, values)
        cancelled_ops = self._window_cancelled_ops()
        window.health = self.monitor.evaluate(now, values, cancelled_ops)
        self.run.health_events.extend(window.health)
        tracer = self.env.tracer
        if tracer.enabled:
            for event in window.health:
                tracer.instant(
                    event.time,
                    "health",
                    f"{event.severity} {event.rule}",
                    "telemetry:health",
                    **event.to_dict(),
                )
        self.run.windows.append(window)
        self._last_t = now
        if self.live_sink is not None:
            self.live_sink(self.run, window)
        return window

    def _resource_series(self, declare, help_text: str, name: str, key: str):
        """The registry child of one resource's snapshot key, declared on
        first use: rebuilding its label key every scrape costs more than
        the rest of the per-key work, and every registered lock is now
        scraped (``tests/telemetry/test_overhead.py`` holds the bound)."""
        series = self._series.get((name, key))
        if series is None:
            series = self._series[name, key] = declare(
                f"repro_resource_{key}", help_text, resource=name
            )
        return series

    def _scrape_driver(self, values: Dict[str, float], elapsed: float) -> None:
        driver = self._driver
        if driver is None:
            return
        reg = self.run.registry
        collector = driver.collector
        values["inflight"] = float(driver.inflight)
        reg.gauge("repro_inflight_requests",
                  "Requests currently in flight").set(driver.inflight)

        offered_total = float(collector.offered)
        values["offered_window"] = self._counter_delta(
            "driver:offered", offered_total
        )
        for op in sorted(collector.offered_by_op):
            total = float(collector.offered_by_op[op])
            delta = self._counter_delta(f"driver:offered:{op}", total)
            if delta > 0:
                reg.counter(
                    "repro_offered_total",
                    "Requests offered (including rejected)", op=op,
                ).inc(delta)

        # Incremental pass over new terminal records.
        records = collector.records
        latencies: List[float] = []
        good = 0
        by_status = {status: 0 for status in RequestStatus}
        hist = reg.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of completed requests",
        )
        sketch = reg.sketch(
            "repro_request_latency",
            "Streaming latency quantiles (completed requests)",
        )
        for record in records[self._record_idx:]:
            by_status[record.status] += 1
            reg.counter(
                "repro_requests_total", "Terminal requests",
                op=record.op_name, status=record.status.value,
            ).inc()
            if record.completed:
                latency = record.latency
                latencies.append(latency)
                hist.observe(latency)
                sketch.observe(latency)
                if self.slo is None or latency <= self.slo:
                    good += 1
        self._record_idx = len(records)

        span = elapsed if elapsed > 0 else self.run.interval
        values["completed_window"] = float(
            by_status[RequestStatus.COMPLETED]
        )
        values["cancelled_window"] = float(
            by_status[RequestStatus.CANCELLED]
        )
        values["dropped_window"] = float(by_status[RequestStatus.DROPPED])
        values["timed_out_window"] = float(
            by_status[RequestStatus.TIMED_OUT]
        )
        values["throughput"] = by_status[RequestStatus.COMPLETED] / span
        values["goodput"] = good / span
        values["p99"] = percentile(latencies, 99)

    def _scrape_controller(self, values: Dict[str, float]) -> None:
        controller = self._controller
        if controller is None:
            return
        snapshot = getattr(controller, "telemetry_snapshot", None)
        if snapshot is None:
            return
        reg = self.run.registry
        snap = snapshot()
        cancels = float(snap.get("cancels_issued", 0))
        values["cancels_total"] = cancels
        values["cancels_window"] = self._counter_delta(
            "ctl:cancels", cancels
        )
        delta = values["cancels_window"]
        if delta > 0:
            reg.counter(
                "repro_cancels_issued_total",
                "Cancel decisions issued by the controller",
            ).inc(delta)

        detector = snap.get("detector")
        if detector is not None:
            overloaded = float(detector.get("overloaded", 0.0))
            tail = float(detector.get("tail_latency", float("nan")))
            values["detector_overloaded"] = overloaded
            values["detector_tail_latency"] = tail
            reg.gauge("repro_detector_overloaded",
                      "Overload trigger state (0/1)").set(overloaded)
            if tail == tail:
                reg.gauge(
                    "repro_detector_tail_latency_seconds",
                    "Detector window tail latency",
                ).set(tail)
            reg.gauge(
                "repro_detector_window_throughput",
                "Detector window throughput",
            ).set(float(detector.get("throughput", 0.0)))
            reg.gauge(
                "repro_detector_window_samples",
                "Completions in the detector window",
            ).set(float(detector.get("samples", 0.0)))

        signals = snap.get("signals")
        if signals is not None:
            for outcome in ("delivered", "dropped", "delayed"):
                total = float(signals.get(outcome, 0))
                if outcome == "dropped":
                    values["signals_dropped_total"] = total
                delta = self._counter_delta(f"ctl:sig:{outcome}", total)
                if delta > 0:
                    reg.counter(
                        "repro_cancel_signals_total",
                        "Cancellation signals by outcome",
                        outcome=outcome,
                    ).inc(delta)

        blame = snap.get("blame")
        if blame is not None:
            for resource in sorted(blame):
                score = float(blame[resource])
                values[f"blame:{resource}"] = score
                reg.gauge(
                    "repro_blame_score",
                    "Estimator contention blame (normalized)",
                    resource=resource,
                ).set(score)

    def _scrape_faults(self, values: Dict[str, float]) -> None:
        faults = self._faults
        if faults is None:
            return
        reg = self.run.registry
        active = float(getattr(faults, "active_faults", 0))
        values["faults_active"] = active
        reg.gauge("repro_faults_active",
                  "Faults currently applied").set(active)
        events = getattr(faults, "events", [])
        phases: Dict[str, int] = {}
        for event in events:
            phase = getattr(event, "phase", "unknown")
            phases[phase] = phases.get(phase, 0) + 1
        for phase in sorted(phases):
            delta = self._counter_delta(
                f"faults:{phase}", float(phases[phase])
            )
            if delta > 0:
                reg.counter(
                    "repro_fault_events_total",
                    "Fault injector events by phase", phase=phase,
                ).inc(delta)

    # ------------------------------------------------------------------
    # Health plumbing
    # ------------------------------------------------------------------
    def _window_cancelled_ops(self) -> List[str]:
        """Ops of cancellations logged since the previous scrape."""
        cancellation = getattr(self._controller, "cancellation", None)
        log = getattr(cancellation, "log", None)
        if not log:
            return []
        new = log[self._cancel_log_idx:]
        self._cancel_log_idx = len(log)
        return [
            e.op_name for e in new if getattr(e, "delivered", True)
        ]

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Flush a trailing partial window; collect audits and faults."""
        if now > self._last_t:
            # The run ended mid-interval: take one last (partial) scrape
            # so the series always covers [0, duration].
            self.scrape()
        self.run.duration = now
        controller = self._controller
        decision_log = getattr(controller, "decision_log", None)
        audits = getattr(decision_log, "audits", None)
        if audits:
            self.run.audits = [audit.to_payload() for audit in audits]
        if self._faults is not None:
            self.run.fault_events = [
                event.to_dict() for event in self._faults.events
            ]
