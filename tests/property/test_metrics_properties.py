"""Property tests for the shared metric helpers.

Pins the percentile edge cases, the closed-boundary SlidingWindow
eviction convention, and the ceil-based windowing helper that the
harness timeline, throughput series, and telemetry scraper all share.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import RequestRecord, RequestStatus, Rng
from repro.sim.metrics import (
    MetricsCollector,
    SlidingWindow,
    Summary,
    SummaryFold,
    completion_windows,
    percentile,
    window_count,
)

latencies = st.lists(
    st.floats(
        min_value=0.0, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=60,
)


class TestPercentileProperties:
    @given(values=latencies, pct=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_result_bounded_by_extremes(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)

    @given(values=latencies)
    @settings(max_examples=200)
    def test_monotone_in_pct(self, values):
        points = [percentile(values, pct) for pct in (0, 25, 50, 75, 100)]
        assert points == sorted(points)
        assert points[0] == min(values)
        assert points[-1] == max(values)

    @given(values=latencies, pct=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100)
    def test_order_invariant(self, values, pct):
        assert percentile(values, pct) == percentile(
            list(reversed(values)), pct
        )

    @given(pct=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50)
    def test_empty_is_nan(self, pct):
        assert math.isnan(percentile([], pct))

    @given(pct=st.one_of(
        st.floats(max_value=-1e-9, allow_nan=False),
        st.floats(min_value=100.0 + 1e-9, allow_nan=False,
                  allow_infinity=False),
    ))
    @settings(max_examples=50)
    def test_out_of_range_pct_raises_even_when_empty(self, pct):
        with pytest.raises(ValueError):
            percentile([], pct)
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], pct)


class TestSlidingWindowProperties:
    def test_entry_exactly_at_horizon_edge_is_kept(self):
        """The window is closed on both ends; detector thresholds were
        calibrated against this, so the boundary is pinned exactly."""
        window = SlidingWindow(horizon=1.0)
        window.observe(0.0, 0.01)
        assert window.count(1.0) == 1          # age == horizon: kept
        assert window.count(1.0 + 1e-9) == 0   # strictly older: evicted

    @given(
        finish_times=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=50,
        ),
        horizon=st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False),
    )
    @settings(max_examples=200)
    def test_count_matches_closed_interval_definition(
        self, finish_times, horizon
    ):
        window = SlidingWindow(horizon=horizon)
        for t in sorted(finish_times):
            window.observe(t, 0.01)
        now = max(finish_times)
        expected = sum(
            1 for t in finish_times if t >= now - horizon
        )
        assert window.count(now) == expected
        assert window.throughput(now) == pytest.approx(
            expected / horizon
        )

    @given(
        # Few distinct values, so ties are common; abs() because a
        # latency is a difference of clock readings, never -0.0.
        window_latencies=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.001, 0.05, 0.05, 1.0]),
                st.floats(min_value=0.0, max_value=10.0).map(abs),
            ),
            max_size=300,
        ),
        pct=st.one_of(
            st.sampled_from([0.0, 50.0, 99.0, 100.0]),
            st.floats(min_value=0.0, max_value=100.0),
        ),
    )
    @settings(max_examples=400)
    def test_latency_percentile_is_bit_identical_to_percentile(
        self, window_latencies, pct
    ):
        """The window reads the two order statistics it needs from its
        sorted copy; the float must be the one a full sort gives."""
        window = SlidingWindow(horizon=10.0)
        for i, latency in enumerate(window_latencies):
            window.observe(i * 0.01, latency)
        now = max(0.0, (len(window_latencies) - 1) * 0.01)
        got = window.latency_percentile(now, pct)
        want = percentile(list(window_latencies), pct)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("size", [2, 3, 101, 1000, 3000])
    def test_large_windows_are_bit_identical_too(self, size):
        """Detector-sized windows (hypothesis rarely draws them), with
        ties from rounding."""
        rng = Rng(size)
        latencies = [round(rng.exponential(0.05), 3) for _ in range(size)]
        window = SlidingWindow(horizon=1e9)
        for i, latency in enumerate(latencies):
            window.observe(float(i), latency)
        for pct in (0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0, 37.3):
            got = window.latency_percentile(float(size - 1), pct)
            assert got.hex() == percentile(latencies, pct).hex(), pct

    @pytest.mark.parametrize("pct", [-1.0, 100.5])
    def test_latency_percentile_rejects_bad_pct(self, pct):
        window = SlidingWindow(horizon=1.0)
        for i in range(5):
            window.observe(0.1 * i, 0.01 * i)
        with pytest.raises(ValueError):
            window.latency_percentile(0.5, pct)

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("observe"),
                    st.sampled_from([0.0, 0.001, 0.05, 0.3]),
                    st.one_of(
                        st.sampled_from([0.0, 0.001, 0.05, 0.05, 1.0]),
                        st.floats(min_value=0.0, max_value=10.0).map(abs),
                    ),
                ),
                st.tuples(
                    st.just("query"),
                    st.sampled_from([0.0, 0.01, 0.5]),
                    st.one_of(
                        st.sampled_from([0.0, 50.0, 99.0, 100.0]),
                        st.floats(min_value=0.0, max_value=100.0),
                    ),
                ),
                st.tuples(
                    st.just("resize"),
                    st.just(0.0),
                    st.sampled_from([0.05, 0.2, 1.0, 3.0]),
                ),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=300)
    def test_sorted_window_tracks_the_live_latencies(self, steps):
        """The detector's window keeps its latencies sorted across
        observe, query and ``set_detection_window`` (shrinking evicts at
        the next read, widening lets the window fill further); every
        percentile is the float :func:`percentile` gives for the live
        latencies."""
        from repro.core import AtroposConfig
        from repro.core.detector import OverloadDetector
        from repro.sim import Environment

        detector = OverloadDetector(
            Environment(), AtroposConfig(detection_window=1.0)
        )
        window = detector.window
        live = []  # (finish_time, latency), oldest first
        now = 0.0
        for op, dt, value in steps:
            now += dt
            if op == "resize":
                detector.set_detection_window(value)
                continue
            if op == "observe":
                window.observe(now, value)
                live.append((now, value))
            cutoff = now - window.horizon
            while live and live[0][0] < cutoff:
                live.pop(0)
            if op == "query":
                got = window.latency_percentile(now, value)
                want = percentile([lat for _, lat in live], value)
                assert got.hex() == want.hex()
                assert window.count(now) == len(live)


def make_records(finish_times):
    return [
        RequestRecord(
            request_id=i,
            op_name="op",
            client_id="c",
            arrival_time=max(0.0, t - 0.01),
            finish_time=t,
            status=RequestStatus.COMPLETED,
        )
        for i, t in enumerate(finish_times)
    ]


class TestWindowingProperties:
    @given(
        end_time=st.floats(min_value=0.0, max_value=1e4,
                           allow_nan=False),
        window=st.floats(min_value=1e-3, max_value=100.0,
                         allow_nan=False),
    )
    @settings(max_examples=200)
    def test_window_count_covers_end_time(self, end_time, window):
        n = window_count(end_time, window)
        assert n >= 1
        assert n * window >= end_time
        # Minimal cover: one fewer window would not reach end_time.
        assert n == 1 or (n - 1) * window < end_time

    def test_window_count_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            window_count(1.0, 0.0)

    @given(
        finish_times=st.lists(
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            max_size=40,
        ),
        window=st.floats(min_value=0.25, max_value=5.0,
                         allow_nan=False),
    )
    @settings(max_examples=200)
    def test_no_completion_is_ever_dropped(self, finish_times, window):
        end_time = 10.0
        records = make_records(finish_times)
        buckets = completion_windows(records, window, end_time)
        assert len(buckets) == window_count(end_time, window)
        total = sum(len(latencies) for _, latencies in buckets)
        # Records finishing past end_time clamp into the last bucket.
        assert total == len(records)

    def test_boundary_lands_in_following_window_except_last(self):
        records = make_records([0.0, 1.0, 2.0])
        buckets = completion_windows(records, 1.0, 2.0)
        assert [len(latencies) for _, latencies in buckets] == [1, 2]
        assert [end for end, _ in buckets] == [1.0, 2.0]


#: ``(arrival, latency, status)`` of one terminal request.
terminal_requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.sampled_from(list(RequestStatus)),
    ),
    max_size=60,
)


def same_summary(a, b):
    """Field for field, bit for bit (NaN equals NaN)."""
    for field in dataclasses.fields(Summary):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float):
            assert x.hex() == y.hex(), field.name
        else:
            assert x == y, field.name


class TestSummaryFoldProperties:
    """An epoch node folds its records one window at a time, warm-up
    cutoff applied as they arrive; its report must be what
    ``Summary.from_collector`` makes of the whole trimmed run."""

    @given(
        requests=terminal_requests,
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
        cutoff=st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        duration=st.floats(min_value=0.1, max_value=100.0,
                           allow_nan=False),
    )
    @example(requests=[], cuts=[0, 0], cutoff=1.0, duration=1.0)
    @example(  # all dropped: no completion, p99 is NaN
        requests=[(0.5, 0.1, RequestStatus.DROPPED)] * 3,
        cuts=[1], cutoff=0.0, duration=2.0,
    )
    @example(  # completions all before the cutoff: NaN p99 again
        requests=[(0.1, 0.1, RequestStatus.COMPLETED),
                  (2.0, 0.5, RequestStatus.CANCELLED)],
        cuts=[1], cutoff=1.0, duration=2.0,
    )
    @settings(max_examples=300)
    def test_windowed_fold_equals_summary_of_trimmed_run(
        self, requests, cuts, cutoff, duration
    ):
        records = [
            RequestRecord(
                request_id=i, op_name="op", client_id="c",
                arrival_time=arrival, finish_time=arrival + latency,
                status=status,
            )
            for i, (arrival, latency, status) in enumerate(requests)
        ]
        collector = MetricsCollector()
        fold = SummaryFold(cutoff)
        bounds = sorted(min(cut, len(records)) for cut in cuts)
        for start, end in zip([0] + bounds, bounds + [len(records)]):
            for record in records[start:end]:
                collector.record(record)
            fold.add(collector.take())
        assert collector.records == []
        expected = Summary.from_collector(
            _holding(records).trimmed(cutoff), duration
        )
        same_summary(fold.summary(duration), expected)


def _holding(records):
    collector = MetricsCollector()
    for record in records:
        collector.record(record)
    return collector
