"""Tests for metrics: records, percentiles, windows, summaries."""

import dataclasses
import math
import struct

import pytest

from repro.sim import (
    MetricsCollector,
    RequestRecord,
    RequestStatus,
    SlidingWindow,
    Summary,
    percentile,
)


def make_record(i, latency, status=RequestStatus.COMPLETED, op="read", finish=None):
    return RequestRecord(
        request_id=i,
        op_name=op,
        client_id="c0",
        arrival_time=0.0,
        finish_time=latency if finish is None else finish,
        status=status,
    )


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 99))

    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_p0_and_p100_are_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_matches_numpy(self):
        import numpy as np

        values = [0.5, 1.2, 7.3, 2.2, 9.9, 4.4, 0.1]
        for pct in (1, 25, 50, 75, 90, 99):
            assert percentile(values, pct) == pytest.approx(
                float(np.percentile(values, pct))
            )


class TestCollector:
    def test_throughput_counts_only_completed(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        mc.record(make_record(2, 0.1, status=RequestStatus.DROPPED))
        assert mc.throughput(duration=2.0) == 0.5

    def test_throughput_filters_by_op(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1, op="read"))
        mc.record(make_record(2, 0.1, op="write"))
        assert mc.throughput(2.0, op_name="read") == 0.5

    def test_drop_rate_counts_non_completed(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        mc.record(make_record(2, 0.1, status=RequestStatus.CANCELLED))
        mc.record(make_record(3, 0.1, status=RequestStatus.DROPPED))
        mc.record(make_record(4, 0.1, status=RequestStatus.TIMED_OUT))
        assert mc.drop_rate() == 0.75

    def test_drop_rate_empty_is_zero(self):
        assert MetricsCollector().drop_rate() == 0.0

    def test_latency_percentile(self):
        mc = MetricsCollector()
        for i, lat in enumerate([0.1, 0.2, 0.3, 0.4]):
            mc.record(make_record(i, lat))
        assert mc.latency_percentile(50) == pytest.approx(0.25)

    def test_goodput_applies_slo(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        mc.record(make_record(2, 0.9))
        assert mc.goodput(duration=1.0, slo=0.5) == 1.0

    def test_offered_counter(self):
        mc = MetricsCollector()
        mc.note_offered()
        mc.note_offered(5)
        assert mc.offered == 6

    def test_throughput_series_buckets_by_finish_time(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1, finish=0.5))
        mc.record(make_record(2, 0.1, finish=1.5))
        mc.record(make_record(3, 0.1, finish=1.7))
        series = mc.throughput_series(window=1.0, end_time=2.0)
        assert series == [(1.0, 1.0), (2.0, 2.0)]

    def test_status_counts(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        mc.record(make_record(2, 0.1, status=RequestStatus.CANCELLED))
        counts = mc.status_counts()
        assert counts[RequestStatus.COMPLETED] == 1
        assert counts[RequestStatus.CANCELLED] == 1
        assert counts[RequestStatus.DROPPED] == 0


class TestSlidingWindow:
    def test_counts_within_horizon(self):
        win = SlidingWindow(horizon=10.0)
        win.observe(1.0, 0.1)
        win.observe(5.0, 0.2)
        assert win.count(now=5.0) == 2

    def test_evicts_old_entries(self):
        win = SlidingWindow(horizon=10.0)
        win.observe(1.0, 0.1)
        win.observe(15.0, 0.2)
        assert win.count(now=15.0) == 1

    def test_throughput(self):
        win = SlidingWindow(horizon=2.0)
        win.observe(0.5, 0.1)
        win.observe(1.0, 0.1)
        assert win.throughput(now=1.0) == 1.0

    def test_percentile_over_window(self):
        win = SlidingWindow(horizon=100.0)
        for t, lat in enumerate([0.1, 0.2, 0.3]):
            win.observe(float(t), lat)
        assert win.latency_percentile(now=3.0, pct=100) == 0.3

    def test_empty_window_latency_is_nan(self):
        win = SlidingWindow(horizon=1.0)
        assert math.isnan(win.mean_latency(now=0.0))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(horizon=0.0)


class TestSummary:
    def test_from_collector(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        mc.record(make_record(2, 0.3))
        mc.record(make_record(3, 0.1, status=RequestStatus.DROPPED))
        s = Summary.from_collector(mc, duration=2.0)
        assert s.throughput == 1.0
        assert s.completed == 2
        assert s.dropped == 1
        assert s.drop_rate == pytest.approx(1 / 3)
        assert s.p99_latency == pytest.approx(0.298)

    def test_rejects_non_positive_duration(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1))
        for duration in (0.0, -1.0):
            with pytest.raises(ValueError, match="duration"):
                Summary.from_collector(mc, duration=duration)
        with pytest.raises(ValueError, match="duration"):
            Summary.from_collector(MetricsCollector(), duration=0.0)


def _reference_summary(collector, duration):
    """``Summary`` assembled from the public per-metric methods: the
    straightforward several-pass definition ``from_collector`` must equal."""
    counts = collector.status_counts()
    return Summary(
        duration=duration,
        throughput=collector.throughput(duration),
        p50_latency=collector.latency_percentile(50),
        p99_latency=collector.latency_percentile(99),
        mean_latency=collector.mean_latency(),
        drop_rate=collector.drop_rate(),
        completed=counts[RequestStatus.COMPLETED],
        dropped=counts[RequestStatus.DROPPED],
        cancelled=counts[RequestStatus.CANCELLED],
        timed_out=counts[RequestStatus.TIMED_OUT],
    )


def _bits(summary):
    """Field values with floats as their exact bit patterns (nan == nan,
    and a one-ulp drift does not hide behind ``==`` on rounded output)."""
    return {
        name: struct.pack("<d", value) if isinstance(value, float) else value
        for name, value in dataclasses.asdict(summary).items()
    }


def _mixed_collector(n=257):
    """All four statuses, several ops, unsorted non-round latencies whose
    sum depends on the order of addition."""
    statuses = list(RequestStatus)
    mc = MetricsCollector()
    mc.note_offered(n + 5)
    for i in range(n):
        latency = ((i * 7919) % 1013) / 997.0 + 1e-9 * i
        arrival = 0.37 * i
        mc.record(RequestRecord(
            request_id=i,
            op_name=("read", "write", "scan")[i % 3],
            client_id="c0",
            arrival_time=arrival,
            finish_time=arrival + latency,
            status=statuses[0] if i % 5 else statuses[1 + (i // 5) % 3],
        ))
    return mc


class TestSummaryMatchesPerMetricMethods:
    """``from_collector`` is one pass and one sort; the per-metric
    methods are the reference, field for field and bit for bit."""

    def check(self, collector, duration):
        got = Summary.from_collector(collector, duration)
        want = _reference_summary(collector, duration)
        assert _bits(got) == _bits(want)
        return got

    def test_all_four_statuses(self):
        summary = self.check(_mixed_collector(), 28.0)
        assert min(summary.completed, summary.dropped,
                   summary.cancelled, summary.timed_out) > 0

    def test_empty_collector(self):
        summary = self.check(MetricsCollector(), 10.0)
        assert summary.completed == 0 and summary.drop_rate == 0.0
        assert math.isnan(summary.p50_latency)
        assert math.isnan(summary.p99_latency)
        assert math.isnan(summary.mean_latency)

    def test_single_record(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.125))
        summary = self.check(mc, 3.0)
        assert summary.p50_latency == summary.p99_latency == 0.125

    def test_nothing_completed(self):
        mc = MetricsCollector()
        mc.record(make_record(1, 0.1, status=RequestStatus.CANCELLED))
        mc.record(make_record(2, 0.2, status=RequestStatus.TIMED_OUT))
        summary = self.check(mc, 3.0)
        assert summary.drop_rate == 1.0 and math.isnan(summary.mean_latency)

    def test_warmup_trimmed_view(self):
        full = _mixed_collector()
        view = full.trimmed(20.0)
        assert 0 < len(view.records) < len(full.records)
        assert view.offered == full.offered
        assert view.offered_by_op == full.offered_by_op
        assert view.records == [
            r for r in full.records if r.finish_time >= 20.0
        ]
        self.check(view, 75.0)
        assert full.trimmed(0.0) is full
