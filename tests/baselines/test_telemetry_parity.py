"""Baseline controllers expose scrape-complete telemetry_snapshot()s.

PR 4 instrumented the ATROPOS core; the baselines used to scrape as
blanks.  The telemetry scraper reads ``snapshot["detector"]`` with the
keys ``overloaded`` / ``tail_latency`` / ``throughput`` / ``samples``,
so the window-driven baselines must provide that dict, and every
controller must report its own action counters.
"""

import pytest

from repro.baselines import SYSTEMS, controller_factory
from repro.core.pipeline import WindowedController
from repro.sim import Environment

DETECTOR_KEYS = {"overloaded", "tail_latency", "throughput", "samples"}


def build(name):
    return controller_factory(name, slo_latency=0.05)(Environment())


ALL_BASELINES = [n for n in SYSTEMS if n not in ("overload", "atropos")]
#: Baselines whose control loop watches a latency window (and therefore
#: report detector-style signals to the scraper).
WINDOWED = [
    n for n in ALL_BASELINES if isinstance(build(n), WindowedController)
]


def test_the_derived_lists_are_the_eight_and_the_five():
    assert len(ALL_BASELINES) == 8
    assert sorted(WINDOWED) == [
        "autothrottle", "breakwater", "dagor", "parties", "seda",
    ]


class TestSnapshotParity:
    @pytest.mark.parametrize("name", ALL_BASELINES)
    def test_snapshot_is_a_dict_with_cancel_counter(self, name):
        snap = build(name).telemetry_snapshot()
        assert isinstance(snap, dict)
        assert "cancels_issued" in snap

    @pytest.mark.parametrize("name", WINDOWED)
    def test_windowed_baselines_report_detector_signals(self, name):
        snap = build(name).telemetry_snapshot()
        assert DETECTOR_KEYS <= set(snap["detector"])
        assert snap["detector"]["overloaded"] in (0.0, 1.0)

    @pytest.mark.parametrize("name", WINDOWED)
    def test_windowed_baselines_report_admission_state(self, name):
        controller = build(name)
        snap = controller.telemetry_snapshot()
        assert controller.rejections == 0
        if name == "autothrottle":  # throttles, never refuses
            assert "limit" in snap["throttle"]
        else:
            assert "rejections" in snap["admission"]

    def test_pbox_reports_penalties(self):
        snap = build("pbox").telemetry_snapshot()
        assert snap["penalties"] == {"issued": 0, "active": 0}

    def test_protego_reports_drops(self):
        snap = build("protego").telemetry_snapshot()
        assert snap["drops"] == {"issued": 0, "open_waits": 0}

    def test_darc_reports_reservations(self):
        snap = build("darc").telemetry_snapshot()
        assert snap["reservations"]["pools"] == 0
        assert "reserved_fraction" in snap["reservations"]


class TestScraperConsumesBaselines:
    def test_scraped_run_has_detector_series_for_seda(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.experiments import run_simulation
        from repro.telemetry import TelemetrySession, telemetry_session
        from repro.workloads import OpenLoopSource, Workload

        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_simulation(
                lambda env, ctl, rng: MySQL(env, ctl, rng),
                lambda app, rng: Workload(
                    [OpenLoopSource(rate=100.0, mix=light_mix(rng))]
                ),
                controller_factory("seda", 0.05),
                duration=2.0,
                seed=0,
                label="parity",
            )
        run = session.runs[0]
        names = {name for name, _, _, _ in run.registry.collect()}
        assert "repro_detector_overloaded" in names
        assert "repro_detector_window_samples" in names
