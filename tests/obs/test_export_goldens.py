"""Export goldens: every file the observation planes write, pinned.

The sha256 of each export below was captured before the tracer, the
scraper and the two HTML renderers were folded onto one shared kit; a
refactor of that kit must leave every one of them alone.

* ``prometheus_text`` / ``jsonl_series`` of the
  ``tests/telemetry/test_report.py`` scraped run,
* ``dumps_chrome_trace`` / ``utilization_rows`` / the audit JSON of the
  ``tests/obs/test_export.py`` mixed-resource scenario, and the same for
  a traced ATROPOS run that cancels (the ``tests/obs/test_audit.py``
  scenario), so the audit JSON pins real decision audits,
* for the telemetry report and the regress diff report: the visible
  text (tags, ``<style>`` and attributes stripped) and the per-tag
  counts.  Styling and attributes may change; what a reader sees and
  the document's structure may not.
"""

import copy
import hashlib
import json
from html.parser import HTMLParser

import pytest

from repro.obs import (
    Tracer,
    dumps_chrome_trace,
    utilization_rows,
    write_audit_json,
)
from repro.regress.baseline import RegressBaseline
from repro.regress.compare import compare
from repro.regress.report import render_diff_report
from repro.sim import Environment
from repro.telemetry import jsonl_series, prometheus_text, render_html_report

from ..regress.test_report import _capture
from ..telemetry.test_report import scraped_session
from .test_audit import run_cancellation_scenario
from .test_export import run_scenario

GOLDENS = {
    "prometheus_text":
        "f3940a708d7d30a04bdb04ac17f9283349a2cf9ed72a27a5d7ab92071baccbbf",
    "jsonl_series":
        "29de6348bcf5c287d5f0799e2a1dbf9b274a2079138349db064db6e8ce3df894",
    "scenario.chrome_trace":
        "bc39a3b576bcbdb81f338ef7b9151f23aabba034a37b425f2987a741e2f19544",
    "scenario.utilization_rows":
        "c91187b7b272f3920493ea0281d14b70a6e89642ed6690d66d95bb48b1a9f235",
    "scenario.audit_json":
        "c1c78e909aa967af9cc8a3a4d8157b5ecacab707889b3b32fdbe09b1a95f9487",
    "atropos.chrome_trace":
        "f56ba39dd8edf25042a60f6526340a4eb5e8cfe0ad8f36954d4d6df6174846dc",
    "atropos.utilization_rows":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "atropos.audit_json":
        "32ddb181f011dea107f6e585ac56b6dbc366b2c6d815985cb48f004f28e91e34",
    "telemetry_report.text":
        "98880da50fddf343820a44959ac0d3fbb344ef93a66551a578f6c28329390865",
    "telemetry_report.tags":
        "951f8da54155c1ec01a44caca2b843417378586888516341631fe34451b52fbc",
    "empty_telemetry_report.text":
        "79bb1623cc0e408eb5fe641baa381f5e7aa35da65c9dee7f71a188b7eff2d002",
    "empty_telemetry_report.tags":
        "2ca5d1bba50fb5622c38f4277791e354e2af783ade6fe616ca4c9fecea3b4d78",
    "diff_report.text":
        "cf8aa79a4faf4318a3a605a4e2c7392ed1af627434bdfbb161cde3cc802b1f5c",
    "diff_report.tags":
        "730837993eff72c65aa06b928a6726d8a167db074b4005e46ce4b4a92be4cf6e",
    "pass_diff_report.text":
        "d466ba00d3219d3e9bcce26fb2776d680fe64dd8de589f9df3c22e59f7fa074a",
    "pass_diff_report.tags":
        "b20115736a3cd056baaff50f74b815f80620084ba4258ecf1110685f088048d4",
}


class _Visible(HTMLParser):
    """Visible text and start-tag counts of an HTML document."""

    def __init__(self):
        super().__init__()
        self.text = []
        self.tags = {}
        self._in_style = False

    def handle_starttag(self, tag, attrs):
        self.tags[tag] = self.tags.get(tag, 0) + 1
        self._in_style = tag == "style"

    def handle_endtag(self, tag):
        if tag == "style":
            self._in_style = False

    def handle_data(self, data):
        if not self._in_style:
            self.text.append(data)


def _html_exports(name, text):
    parsed = _Visible()
    parsed.feed(text)
    parsed.close()
    return {
        f"{name}.text": "".join(parsed.text),
        f"{name}.tags": json.dumps(parsed.tags, sort_keys=True),
    }


def _trace_exports(name, tracer, tmp_path):
    path = tmp_path / f"{name}-audits.json"
    write_audit_json(tracer.audits, path)
    return {
        f"{name}.chrome_trace": dumps_chrome_trace(tracer),
        f"{name}.utilization_rows": json.dumps(utilization_rows(tracer)),
        f"{name}.audit_json": path.read_text(encoding="utf-8"),
    }


def _drift_fixture():
    """A drifting regress check: a series and a summary scalar moved,
    a digest changed, and one capture went missing."""
    base = [
        _capture(),
        _capture(name="dag:storm", series=None, digest="aaa111"),
        _capture(name="case:c9"),
    ]
    cur_case = _capture()
    cur_case.series = dict(cur_case.series, p99=[0.015] * 20)
    cur_case.summary = dict(cur_case.summary, p99_latency=0.03)
    cur = [cur_case, _capture(name="dag:storm", series=None, digest="bbb222")]
    baseline = RegressBaseline(name="base", cases=base)
    current = RegressBaseline(name="cur", cases=cur)
    return render_diff_report(compare(baseline, current), baseline, current)


def _pass_fixture():
    baseline = RegressBaseline(name="base", cases=[_capture()])
    current = RegressBaseline(name="cur", cases=[copy.deepcopy(_capture())])
    return render_diff_report(compare(baseline, current), baseline, current)


def all_exports(tmp_path):
    """Export name -> exported text, for every entry in GOLDENS."""
    runs = scraped_session().runs
    exports = {
        "prometheus_text": prometheus_text(runs),
        "jsonl_series": jsonl_series(runs),
    }
    scenario = run_scenario(Tracer())
    exports.update(_trace_exports("scenario", scenario, tmp_path))
    tracer = Tracer()
    tracer.new_run("audit-run")
    run_cancellation_scenario(Environment(tracer=tracer))
    tracer.close_open_spans(0.5)
    exports.update(_trace_exports("atropos", tracer, tmp_path))
    for name, text in (
        ("telemetry_report", render_html_report(runs)),
        ("empty_telemetry_report", render_html_report([])),
        ("diff_report", _drift_fixture()),
        ("pass_diff_report", _pass_fixture()),
    ):
        exports.update(_html_exports(name, text))
    return exports


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    exports = all_exports(tmp_path_factory.mktemp("goldens"))
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in exports.items()
    }


def test_every_export_is_pinned(digests):
    assert set(digests) == set(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_export_matches_golden(digests, name):
    assert digests[name] == GOLDENS[name]
