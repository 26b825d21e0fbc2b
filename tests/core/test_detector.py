"""Tests for the Breakwater-style overload detector."""

import pytest

from repro.core import AtroposConfig, OverloadDetector
from repro.sim import Environment, RequestRecord, RequestStatus


def record(finish, latency, status=RequestStatus.COMPLETED):
    return RequestRecord(
        request_id=0,
        op_name="op",
        client_id="c",
        arrival_time=finish - latency,
        finish_time=finish,
        status=status,
    )


@pytest.fixture
def env():
    return Environment()


def make_detector(env, **overrides):
    settings = dict(
        slo_latency=0.1,
        slo_slack=1.2,
        min_window_samples=5,
        detection_window=10.0,
    )
    settings.update(overrides)
    return OverloadDetector(env, AtroposConfig(**settings))


def feed(detector, n, latency, start=0.0, spacing=0.01):
    for i in range(n):
        detector.observe_completion(record(start + i * spacing, latency))


def test_no_overload_when_latency_under_slo(env):
    det = make_detector(env)
    feed(det, 50, latency=0.05)
    assert det.check() is False


def test_overload_when_latency_over_slo_and_flat(env):
    det = make_detector(env)
    feed(det, 50, latency=0.5)
    det.check()  # establishes throughput baseline
    # No new completions: throughput is flat while latency violates.
    assert det.check() is True


def test_first_check_with_violation_counts(env):
    """Without a throughput baseline, a latency violation alone triggers."""
    det = make_detector(env)
    feed(det, 50, latency=0.5)
    assert det.check() is True


def test_growing_throughput_suppresses_trigger(env):
    det = make_detector(env)
    feed(det, 20, latency=0.5)
    det.check()
    # Second window has much higher throughput: system still ramping.
    feed(det, 60, latency=0.5, start=0.2, spacing=0.001)
    assert det.check() is False


def test_too_few_samples_never_triggers(env):
    det = make_detector(env)
    feed(det, 3, latency=10.0)
    assert det.check() is False


def test_dropped_requests_not_observed(env):
    det = make_detector(env)
    for i in range(50):
        det.observe_completion(
            record(i * 0.01, 10.0, status=RequestStatus.DROPPED)
        )
    assert det.check() is False


def test_latency_limit_includes_slack(env):
    det = make_detector(env)
    assert det.latency_limit() == pytest.approx(0.12)
    # Latency between SLO and SLO*slack does not trigger.
    feed(det, 50, latency=0.11)
    assert det.check() is False


def test_history_records_samples(env):
    det = make_detector(env)
    assert det.last is None
    feed(det, 50, latency=0.5)
    det.check()
    sample = det.last
    assert sample.samples == 50
    assert sample.overloaded is True


def test_old_completions_age_out_of_window(env):
    det = make_detector(env, detection_window=1.0)
    feed(det, 50, latency=0.5)  # finishes by t=0.5
    env.run(until=100.0)
    # At t=100, the window is empty: no samples, no trigger.
    assert det.check() is False
