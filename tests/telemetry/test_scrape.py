"""Integration tests: the scraper attached to real harness runs."""

import pytest

from repro.apps.mongodb import MongoDB
from repro.apps.mysql import MySQL, light_mix
from repro.apps.postgres import PostgreSQL
from repro.core import Atropos, AtroposConfig, NullController
from repro.experiments import run_simulation
from repro.obs import ACTIVE, Tracer, tracing
from repro.sim import Environment, Rng
from repro.sim.metrics import window_count
from repro.telemetry import (
    HealthRule,
    TelemetrySession,
    live_line,
    telemetry_session,
)
from repro.telemetry.scrape import RunTelemetry, Scraper
from repro.workloads import OpenLoopSource, Workload


def run_mysql(duration=3.0, seed=0, controller_factory=None, rate=150.0):
    return run_simulation(
        lambda env, ctl, rng: MySQL(env, ctl, rng),
        lambda app, rng: Workload(
            [OpenLoopSource(rate=rate, mix=light_mix(rng))]
        ),
        controller_factory,
        duration=duration,
        seed=seed,
    )


class TestScraperAttachment:
    def test_runs_are_recorded_with_expected_window_count(self):
        session = TelemetrySession(interval=0.4)
        with telemetry_session(session):
            result = run_mysql(duration=3.0)
        assert result.telemetry is session.runs[0]
        run = session.runs[0]
        # Finalize takes a trailing partial scrape, so the series
        # always covers [0, duration] under the shared ceil convention.
        assert len(run.windows) == window_count(3.0, 0.4)
        assert run.windows[-1].t == pytest.approx(3.0)
        assert run.duration == pytest.approx(3.0)

    def test_no_session_records_nothing(self):
        result = run_mysql(duration=1.0)
        assert result.telemetry is None
        assert ACTIVE.telemetry.enabled is False

    def test_max_runs_caps_attachment(self):
        session = TelemetrySession(interval=0.5, max_runs=1)
        with telemetry_session(session):
            first = run_mysql(duration=1.0)
            second = run_mysql(duration=1.0)
        assert first.telemetry is not None
        assert second.telemetry is None
        assert len(session.runs) == 1

    def test_discovers_resources_but_not_the_controller(self):
        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_mysql(duration=1.0)
        run = session.runs[0]
        assert len(run.resource_names) >= 3
        # The app's controller back-reference must not be scraped as a
        # resource even though it exposes telemetry_snapshot().
        assert "overload" not in run.resource_names
        window = run.windows[-1]
        for name in run.resource_names:
            assert f"util:{name}" in window.values

    @pytest.mark.parametrize(
        "app_type", [MySQL, PostgreSQL, MongoDB], ids=lambda cls: cls.name
    )
    def test_attach_lists_every_registered_resource(self, app_type):
        """The per-table / per-collection locks sit in a list on the app;
        the scraper reads the registry, so they get series too."""
        env = Environment()
        app = app_type(env, NullController(env), Rng(0))
        run = RunTelemetry("run", 0.5)
        scraper = Scraper(env, run, rules=[])
        scraper.attach(app=app)
        assert run.resource_names == sorted(
            sim.name for sim in app.resources()
        )
        listed = [
            name for name in run.resource_names
            if ".table_lock." in name or ".collection_lock." in name
        ]
        assert len(listed) >= 4
        window = scraper.scrape()
        for name in run.resource_names:
            assert f"util:{name}" in window.values
        for name in listed:
            assert f"qdepth:{name}" in window.values


class TestWindowValues:
    def test_core_value_keys_present(self):
        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_mysql(duration=2.0)
        window = session.runs[0].windows[0]
        for key in (
            "event_queue_depth",
            "processes_alive",
            "inflight",
            "offered_window",
            "completed_window",
            "throughput",
            "goodput",
            "p99",
        ):
            assert key in window.values, key

    def test_window_counts_sum_to_run_totals(self):
        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            result = run_mysql(duration=3.0)
        run = session.runs[0]
        completed = sum(
            w.values["completed_window"] for w in run.windows
        )
        assert completed == result.summary.completed
        offered = sum(w.values["offered_window"] for w in run.windows)
        assert offered == result.collector.offered

    def test_scraping_does_not_perturb_results(self):
        plain = run_mysql(duration=3.0, seed=7)
        session = TelemetrySession(interval=0.25)
        with telemetry_session(session):
            scraped = run_mysql(duration=3.0, seed=7)
        assert scraped.summary == plain.summary
        assert len(scraped.collector.records) == len(
            plain.collector.records
        )


class TestControllerScrape:
    def test_detector_state_lands_in_windows(self):
        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_mysql(
                duration=2.0,
                controller_factory=lambda env: Atropos(
                    env, AtroposConfig(slo_latency=0.05)
                ),
            )
        run = session.runs[0]
        window = run.windows[-1]
        assert "detector_overloaded" in window.values
        assert "cancels_total" in window.values
        families = {name for name, *_ in run.registry.collect()}
        assert "repro_detector_overloaded" in families

    def test_telemetry_leaves_the_decision_log_unchanged(self):
        """Health events reach the trace and the run's telemetry; the
        controller's decision log equals the unobserved run's."""
        def atropos(env):
            # An SLO tight enough that the detector fires and audits.
            return Atropos(env, AtroposConfig(slo_latency=0.002))

        # A floor no workload can meet: fires on every loaded window.
        rules = [
            HealthRule(
                name="impossible-goodput", kind="goodput-floor",
                params={"floor": 1e9},
            )
        ]
        session = TelemetrySession(interval=0.5, health_rules=rules)
        tracer = Tracer()
        with telemetry_session(session), tracing(tracer):
            observed = run_mysql(duration=2.0, controller_factory=atropos)
        plain = run_mysql(duration=2.0, controller_factory=atropos)
        run = session.runs[0]
        assert run.health_events
        assert all(
            e.kind == "goodput-floor" for e in run.health_events
        )
        assert tracer.counts["health"] == len(run.health_events)
        observed_log = observed.controller.decision_log
        plain_log = plain.controller.decision_log
        assert plain_log.events and plain_log.audits
        assert observed_log.events == plain_log.events
        assert observed_log.audits == plain_log.audits


class TestLiveSink:
    def test_sink_called_per_scrape_and_line_renders(self):
        lines = []
        session = TelemetrySession(
            interval=0.5,
            live_sink=lambda run, window: lines.append(
                live_line(run, window)
            ),
        )
        with telemetry_session(session):
            run_mysql(duration=2.0)
        assert len(lines) == len(session.runs[0].windows)
        assert all("tput=" in line and "p99=" in line for line in lines)
