"""Property-based tests for estimation primitives, ledger, and metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ResourceHandle,
    ResourceType,
    clamp_progress,
    future_gain_multiplier,
)
from repro.core.progress import MAX_PROGRESS, MIN_PROGRESS
from repro.sim import Rng, percentile

from ..core.recorder import Recorder

# Imported here, not inside test_matches_numpy: the first import takes a
# few hundred ms, which hypothesis would charge to one example's deadline.
np = pytest.importorskip("numpy")

RES = ResourceHandle("r", ResourceType.LOCK)


class TestProgressProperties:
    @given(p=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_clamp_always_in_range(self, p):
        assert MIN_PROGRESS <= clamp_progress(p) <= MAX_PROGRESS

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_multiplier_monotone_decreasing(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert future_gain_multiplier(lo) >= future_gain_multiplier(hi)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_multiplier_finite_and_nonnegative(self, p):
        m = future_gain_multiplier(p)
        assert m >= 0.0
        assert math.isfinite(m)


class TestPercentileProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        pct=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_within_min_max(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        p1=st.floats(min_value=0.0, max_value=100.0),
        p2=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_pct(self, values, p1, p2):
        lo, hi = sorted((p1, p2))
        assert percentile(values, lo) <= percentile(values, hi)

    @given(
        values=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        pct=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_matches_numpy(self, values, pct):
        ours = percentile(values, pct)
        theirs = float(np.percentile(values, pct))
        assert math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9)


class TestLedgerProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["get", "free", "slow", "roll"]),
                st.integers(min_value=1, max_value=3),  # task key
                st.floats(min_value=0.0, max_value=10.0),  # amount/delay
            ),
            max_size=60,
        )
    )
    @settings(max_examples=150)
    def test_window_never_exceeds_total(self, events):
        """The resource window is exactly the sum of the events since the
        last roll (in event order), and a task's total the sum of its
        events since it started."""
        ledger = Recorder()
        now = 0.0
        window = [0.0, 0.0, 0.0, 0.0]  # acquired, wait, events, hold
        acquired = {1: 0.0, 2: 0.0, 3: 0.0}
        since = {}  # task -> (hold depth, start)
        for kind, task, value in events:
            now += 0.1
            if kind == "get":
                ledger.record_get(task, RES, value, now)
                window[0] += value
                acquired[task] += value
                depth, start = since.get(task, (0, now))
                since[task] = (depth + 1, start if depth else now)
            elif kind == "free":
                ledger.record_free(task, RES, value, now)
                depth, start = since.get(task, (0, now))
                if depth == 1 and now - start > 0:
                    window[3] += now - start
                since[task] = (max(0, depth - 1), start)
            elif kind == "slow":
                ledger.record_slow_by(task, RES, value)
                window[1] += value
                window[2] += 1.0
            else:
                ledger.roll_window()
                window = [0.0, 0.0, 0.0, 0.0]
            got = ledger.resource_window(RES)
            assert [got.acquired, got.wait_time, got.wait_events,
                    got.hold_time] == window
            for t in (1, 2, 3):
                assert ledger.task_total(t, RES).acquired == acquired[t]
            assert got.acquired <= sum(acquired.values()) + 1e-9

    @given(
        gets=st.integers(min_value=0, max_value=10),
        frees=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=100)
    def test_unbalanced_frees_never_negative_hold(self, gets, frees):
        ledger = Recorder()
        now = 0.0
        for _ in range(gets):
            now += 1.0
            ledger.record_get(1, RES, 1, now)
        for _ in range(frees):
            now += 1.0
            ledger.record_free(1, RES, 1, now)
        assert ledger.task_total(1, RES).hold_time >= 0.0
        assert ledger.current_hold(1, RES, now) >= 0.0


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_fork_deterministic_per_seed(self, seed):
        a = Rng(seed).fork("x")
        b = Rng(seed).fork("x")
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        mean=st.floats(min_value=0.001, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_exponential_positive(self, seed, mean):
        assert Rng(seed).exponential(mean) > 0.0
