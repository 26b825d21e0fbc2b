"""Tests for history-mined threshold schedules and their in-run loop."""

import pytest

from repro.core.adaptive import HistoryScheduleSource
from repro.core.config import AtroposConfig
from repro.regress.baseline import CaseCapture, RegressBaseline
from repro.regress.schedule import (
    BASE_SLACK,
    TIGHT_SLACK,
    derive_schedule,
    derive_schedules,
    schedule_overrides,
)


def _capture_with_p99(p99s, slo=0.02, window=0.5, throughput=20.0):
    n = len(p99s)
    return CaseCapture(
        name="case:cx",
        spec={"experiment": "t", "family": "case",
              "params": {"case_id": "c1"}, "seed": 1},
        series={
            "window": window,
            "end": [round(window * (i + 1), 9) for i in range(n)],
            "slo": slo,
            "throughput": [throughput] * n,
            "p99": list(p99s),
            "goodput": [throughput] * n,
            "cancels": [0] * n,
        },
    )


class TestDeriveSchedule:
    def test_healthy_history_yields_no_schedule(self):
        capture = _capture_with_p99([0.01] * 10)
        assert derive_schedule(capture) == []

    def test_sustained_violation_brackets_the_phase(self):
        # Windows 3..6 blow past 5x the 0.02 SLO.
        p99s = [0.01] * 3 + [0.2] * 4 + [0.01] * 3
        schedule = derive_schedule(_capture_with_p99(p99s))
        assert len(schedule) == 2
        tighten, relax = schedule
        assert tighten["param"] == "slo_slack"
        assert tighten["value"] == TIGHT_SLACK
        # Tighten lands at the *start* of the first violating window.
        assert tighten["time"] == pytest.approx(1.5)
        assert relax["value"] == BASE_SLACK
        # Relax lands one window after the phase's last window end.
        assert relax["time"] == pytest.approx(4.0)

    def test_short_blip_ignored(self):
        p99s = [0.01] * 4 + [0.2] * 2 + [0.01] * 4
        assert derive_schedule(_capture_with_p99(p99s)) == []

    def test_sparse_windows_not_trusted(self):
        # Violating p99 but almost no completions backing it.
        capture = _capture_with_p99([0.2] * 6, throughput=1.0)
        assert derive_schedule(capture) == []

    def test_empty_window_p99_none_skipped(self):
        p99s = [None] * 3 + [0.2] * 4 + [None] * 3
        schedule = derive_schedule(_capture_with_p99(p99s))
        assert len(schedule) == 2

    def test_no_series_or_slo_is_empty(self):
        capture = _capture_with_p99([0.2] * 6)
        capture.series = None
        assert derive_schedule(capture) == []
        capture = _capture_with_p99([0.2] * 6)
        capture.series["slo"] = None
        assert derive_schedule(capture) == []

    def test_derive_schedules_omits_empty(self):
        healthy = _capture_with_p99([0.01] * 10)
        bad = _capture_with_p99([0.2] * 6)
        bad.name = "case:bad"
        baseline = RegressBaseline(name="b", cases=[healthy, bad])
        schedules = derive_schedules(baseline)
        assert list(schedules) == ["case:bad"]

    def test_schedule_overrides_enable_adaptive(self):
        schedule = [{"time": 1.0, "param": "slo_slack", "value": 1.05}]
        overrides = schedule_overrides(schedule)
        assert overrides["adaptive_thresholds"] is True
        assert overrides["history_schedule"] == schedule
        # The payload must construct a valid config as-is.
        AtroposConfig(**overrides)


class TestConfigValidation:
    def test_schedule_requires_adaptive(self):
        with pytest.raises(ValueError, match="adaptive_thresholds"):
            AtroposConfig(
                history_schedule=[
                    {"time": 1.0, "param": "slo_slack", "value": 1.1}
                ]
            )

    def test_bad_entries_rejected(self):
        for entry in (
            {"time": 1.0, "param": "bogus", "value": 1.1},
            {"time": -1.0, "param": "slo_slack", "value": 1.1},
            {"time": 1.0, "param": "slo_slack", "value": 0.0},
            "not-a-dict",
        ):
            with pytest.raises(ValueError, match="history_schedule"):
                AtroposConfig(
                    adaptive_thresholds=True, history_schedule=[entry]
                )

    def test_valid_schedule_accepted(self):
        config = AtroposConfig(
            adaptive_thresholds=True,
            history_schedule=[
                {"time": 0.0, "param": "detection_window", "value": 2.0},
                {"time": 3, "param": "slo_slack", "value": 1.05},
            ],
        )
        assert len(config.history_schedule) == 2


class TestHistoryScheduleSource:
    def test_publishes_due_entries_once(self):
        source = HistoryScheduleSource(
            [
                {"time": 2.0, "param": "slo_slack", "value": 1.05},
                {"time": 1.0, "param": "detection_window", "value": 2.0},
            ]
        )
        signals = {}
        source.sample(0.5, signals)
        assert "history_targets" not in signals
        signals = {}
        source.sample(1.5, signals)
        assert [e["param"] for e in signals["history_targets"]] == \
            ["detection_window"]
        signals = {}
        source.sample(2.5, signals)
        assert [e["param"] for e in signals["history_targets"]] == \
            ["slo_slack"]
        # Exhausted: nothing further is ever republished.
        signals = {}
        source.sample(99.0, signals)
        assert "history_targets" not in signals

    def test_entries_sorted_and_batched(self):
        source = HistoryScheduleSource(
            [
                {"time": 2.0, "param": "slo_slack", "value": 1.05},
                {"time": 1.0, "param": "slo_slack", "value": 1.1},
            ]
        )
        signals = {}
        source.sample(5.0, signals)
        values = [e["value"] for e in signals["history_targets"]]
        assert values == [1.1, 1.05]  # time order preserved


class TestEndToEndScheduleRun:
    def test_scheduled_moves_land_as_audited_adapts(self):
        from dataclasses import replace

        from repro.campaign.runner import _execute_one
        from repro.experiments.case_family import case_spec

        spec = case_spec(
            "t", "c2", 1,
            overlay={
                "adaptive_thresholds": True,
                "history_schedule": [
                    {"time": 1.5, "param": "slo_slack", "value": 1.05},
                    {"time": 2.5, "param": "detection_window",
                     "value": 2.0},
                ],
            },
        )
        spec = replace(spec, duration=4.0, warmup=1.0)
        payload = _execute_one(spec)
        events = [
            e for e in payload["extras"].get("adapt_events", [])
            if e["reason"] == "history-schedule"
        ]
        assert len(events) == 2
        assert {e["param"] for e in events} == \
            {"slo_slack", "detection_window"}
        # Applied at the first detector tick at/after the scheduled time.
        for event in events:
            assert event["time"] >= 1.5
        # And the moves are in the audited decision mix.
        assert payload["extras"]["decision_mix"].get("adapt", 0) >= 2
