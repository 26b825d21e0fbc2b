"""Live telemetry: metrics registry, scraping, health monitors, reports.

The telemetry layer gives every simulation run Prometheus-style,
scrape-based observability *while it executes* -- the online complement
to the post-hoc :mod:`repro.obs` traces:

* :mod:`~repro.telemetry.registry` -- deterministic counters / gauges /
  log-bucket histograms / streaming quantile sketches,
* :mod:`~repro.telemetry.scrape` -- a sim-time :class:`Scraper` sampling
  the kernel, every resource, the driver, the controller, and the fault
  injector each interval,
* :mod:`~repro.telemetry.health` -- declarative SLO/invariant rules
  producing a typed :class:`HealthEvent` stream,
* :mod:`~repro.telemetry.export` / :mod:`~repro.telemetry.report` --
  Prometheus text, JSONL series, and self-contained HTML reports.

Usage mirrors :func:`repro.obs.tracing`::

    from repro.telemetry import TelemetrySession, telemetry_session

    session = TelemetrySession(interval=0.25)
    with telemetry_session(session):
        run_experiments(["fig2"])      # every run gets scraped
    write_html_report(session.runs, "report.html")

Null fast path: the session lives in the same slot as the active
tracer (:data:`repro.obs.ACTIVE`), whose null session's ``enabled`` and
``accepting_runs`` are class attributes ``False`` -- the harness pays
one attribute load and one branch per run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, ContextManager, List, Optional, Sequence

from ..obs.tracer import active
from .export import (
    jsonl_series,
    prometheus_text,
    write_jsonl,
    write_prometheus,
)
from .health import (
    HealthEvent,
    HealthMonitor,
    HealthRule,
    default_health_rules,
    worst_severity,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    log_buckets,
)
from .report import render_html_report, write_html_report
from .scrape import RunTelemetry, Scraper, ScrapeWindow, live_line

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "log_buckets",
    "HealthEvent",
    "HealthMonitor",
    "HealthRule",
    "default_health_rules",
    "worst_severity",
    "RunTelemetry",
    "Scraper",
    "ScrapeWindow",
    "live_line",
    "TelemetrySession",
    "telemetry_session",
    "prometheus_text",
    "jsonl_series",
    "write_prometheus",
    "write_jsonl",
    "render_html_report",
    "write_html_report",
]


class TelemetrySession:
    """One scraping session covering one or more simulation runs.

    Args:
        interval: simulated seconds between scrapes.
        max_runs: stop attaching after this many runs (None = all).
        health_rules: explicit rule list; None derives
            :func:`default_health_rules` per run from the controller's
            SLO.
        live_sink: callable ``(run, window)`` invoked after every scrape
            (the ``--live`` TTY dashboard).
    """

    enabled = True

    def __init__(
        self,
        interval: float = 0.25,
        max_runs: Optional[int] = None,
        health_rules: Optional[Sequence[HealthRule]] = None,
        live_sink: Optional[Callable[[RunTelemetry, ScrapeWindow], None]]
        = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.interval = interval
        self.max_runs = max_runs
        self.health_rules = (
            list(health_rules) if health_rules is not None else None
        )
        self.live_sink = live_sink
        self.runs: List[RunTelemetry] = []

    @property
    def accepting_runs(self) -> bool:
        """Whether a new harness run should attach to this session."""
        return self.max_runs is None or len(self.runs) < self.max_runs

    def new_run(self, label: str) -> RunTelemetry:
        """Start telemetry for one run; returns its recorder."""
        run = RunTelemetry(label=label, interval=self.interval)
        self.runs.append(run)
        return run

    def rules_for(self, controller: "BaseController") -> List[HealthRule]:
        """The rule set a run under ``controller`` is monitored with."""
        if self.health_rules is not None:
            return list(self.health_rules)
        return default_health_rules(slo=controller.slo_latency)


def telemetry_session(
    session: Optional[TelemetrySession],
) -> ContextManager[Optional[TelemetrySession]]:
    """Context manager scoping an active telemetry session::

        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_experiments(["fig2"])
        write_prometheus(session.runs, "metrics.prom")
    """
    return active("telemetry", session)
