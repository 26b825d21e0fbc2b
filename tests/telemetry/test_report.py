"""HTML report tests: structure, self-containment, sparkline panels."""

from html.parser import HTMLParser

from repro.core import Atropos, AtroposConfig
from repro.telemetry import (
    render_html_report,
    TelemetrySession,
    telemetry_session,
)

from .test_scrape import run_mysql


class _Auditor(HTMLParser):
    """Counts tags and records external references while parsing."""

    def __init__(self):
        super().__init__()
        self.tags = {}
        self.external = []

    def handle_starttag(self, tag, attrs):
        self.tags[tag] = self.tags.get(tag, 0) + 1
        for name, value in attrs:
            if name in ("src", "href") and value:
                self.external.append(value)


def audit(html_text):
    auditor = _Auditor()
    auditor.feed(html_text)
    return auditor


def scraped_session():
    session = TelemetrySession(interval=0.5)
    with telemetry_session(session):
        run_mysql(
            duration=2.0,
            controller_factory=lambda env: Atropos(
                env, AtroposConfig(slo_latency=0.05)
            ),
        )
    return session


class TestHtmlReport:
    def test_empty_report_still_valid(self):
        text = render_html_report([])
        assert text.startswith("<!DOCTYPE html>")
        assert "No telemetry captured" in text
        assert audit(text).tags.get("html") == 1

    def test_report_has_at_least_four_sparkline_panels(self):
        session = scraped_session()
        text = render_html_report(session.runs)
        auditor = audit(text)
        # throughput, p99, queue depth, cancellations, plus one
        # utilization panel per resource; timeline adds one more svg.
        assert auditor.tags.get("svg", 0) >= 5
        assert auditor.tags.get("polyline", 0) >= 4
        assert "health timeline" in text

    def test_report_is_self_contained(self):
        text = render_html_report(scraped_session().runs)
        auditor = audit(text)
        assert auditor.external == []
        assert auditor.tags.get("style") == 1
        assert "<script" not in text

    def test_run_metadata_and_title_rendered(self):
        session = scraped_session()
        text = render_html_report(session.runs)
        assert "<title>repro telemetry report</title>" in text
        assert session.runs[0].label in text
        assert f"{len(session.runs[0].windows)} windows" in text

    def test_deterministic_rendering(self):
        session = scraped_session()
        assert render_html_report(session.runs) == render_html_report(
            session.runs
        )
