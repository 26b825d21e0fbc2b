"""Tests for the composable control-plane pipeline (repro.core.pipeline)."""

import pytest

from repro.core import (
    ActionPolicy,
    ControlPipeline,
    LatencyWindowSource,
    NoAdaptation,
    SignalSource,
)
from repro.baselines import DARC
from repro.core import NullController
from repro.core.pipeline import AdaptationPolicy, WindowedController
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


class RecordingSource(SignalSource):
    def __init__(self, name, trace, key=None, value=None):
        self.name = name
        self.trace = trace
        self.key = key
        self.value = value

    def sample(self, now, signals):
        self.trace.append(f"sample:{self.name}")
        if self.key is not None:
            signals[self.key] = self.value

    def roll(self, now):
        self.trace.append(f"roll:{self.name}")


class ReadingSource(SignalSource):
    """Reads a key an earlier source produced (pipeline ordering)."""

    def __init__(self, trace):
        self.trace = trace
        self.seen = []

    def sample(self, now, signals):
        self.trace.append("sample:reader")
        self.seen.append(signals.get("upstream"))


class RecordingAdaptation(AdaptationPolicy):
    def __init__(self, trace):
        self.trace = trace

    def adapt(self, now, signals):
        self.trace.append("adapt")


class RecordingAction(ActionPolicy):
    def __init__(self, trace):
        self.trace = trace

    def act(self, now, signals):
        self.trace.append("act")


class TestTickOrder:
    def test_sample_adapt_act_roll(self, env):
        trace = []
        pipeline = ControlPipeline(
            env,
            period=1.0,
            sources=[
                RecordingSource("a", trace),
                RecordingSource("b", trace),
            ],
            adaptation=RecordingAdaptation(trace),
            action=RecordingAction(trace),
        )
        pipeline.tick()
        assert trace == [
            "sample:a", "sample:b", "adapt", "act", "roll:a", "roll:b",
        ]

    def test_sources_share_one_signal_map(self, env):
        trace = []
        reader = ReadingSource(trace)
        pipeline = ControlPipeline(
            env,
            period=1.0,
            sources=[
                RecordingSource("w", trace, key="upstream", value=42),
                reader,
            ],
        )
        signals = pipeline.tick()
        assert reader.seen == [42]
        assert signals["upstream"] == 42

    def test_fresh_signal_map_each_tick(self, env):
        pipeline = ControlPipeline(
            env, period=1.0, sources=[RecordingSource("a", [], "k", 1)]
        )
        first = pipeline.tick()
        second = pipeline.tick()
        assert first is not second

    def test_default_adaptation_is_fixed(self, env):
        pipeline = ControlPipeline(env, period=1.0)
        assert isinstance(pipeline.adaptation, NoAdaptation)
        # NoAdaptation and a source-less, action-less tick are no-ops.
        assert pipeline.tick() == {}


class TestLifecycle:
    def test_periodic_loop_ticks_each_period(self, env):
        trace = []
        pipeline = ControlPipeline(
            env, period=1.0, sources=[RecordingSource("a", trace)]
        )
        pipeline.start()
        env.run(until=3.5)
        assert trace.count("sample:a") == 3

    def test_start_is_idempotent(self, env):
        trace = []
        pipeline = ControlPipeline(
            env, period=1.0, sources=[RecordingSource("a", trace)]
        )
        pipeline.start()
        pipeline.start()
        env.run(until=2.5)
        # A second start() must not spawn a second monitor process.
        assert trace.count("sample:a") == 2


class TickingController(WindowedController):
    """The smallest windowed baseline: records what it is handed."""

    adjust_period = 0.5

    def __init__(self, env):
        super().__init__(env)
        self.ticks = []

    def act(self, now, signals):
        self.ticks.append((now, signals["samples"]))


class TestActionSeat:
    def test_controller_passed_as_action_is_ticked(self, env):
        controller = TickingController(env)
        assert controller.pipeline.action is controller
        controller.observe_completion(record(0.1, 0.05))
        controller.start()
        env.run(until=1.2)
        assert controller.ticks == [(0.5, 1), (1.0, 1)]

    def test_windowed_controller_without_act_raises(self, env):
        class NoAct(WindowedController):
            adjust_period = 1.0

        controller = NoAct(env)
        with pytest.raises(NotImplementedError):
            controller.pipeline.tick()

    def test_darc_and_null_start_no_process(self, env):
        for build in (DARC, NullController):
            controller = build(env)
            before = env.alive_processes
            controller.start()
            env.run(until=env.now + 1.0)
            assert env.alive_processes == before
            assert not hasattr(controller, "pipeline")


class TestLatencyWindowSource:
    def test_signals_from_completions(self, env):
        source = LatencyWindowSource(env, horizon=10.0, percentile=50)
        for i in range(10):
            source.observe_completion(record(0.1 * i, latency=0.2))
        signals = {}
        source.sample(1.0, signals)
        assert signals["samples"] == 10
        assert signals["throughput"] == pytest.approx(1.0)
        assert signals["mean_latency"] == pytest.approx(0.2)
        assert signals["tail_latency"] == pytest.approx(0.2)

    def test_ignores_non_completed_records(self, env):
        source = LatencyWindowSource(env)
        source.observe_completion(
            record(0.5, 0.1, status=RequestStatus.CANCELLED)
        )
        signals = {}
        source.sample(1.0, signals)
        assert signals["samples"] == 0

    def test_telemetry_snapshot_keys(self, env):
        source = LatencyWindowSource(env, horizon=10.0)
        source.observe_completion(record(0.0, 0.05))
        snap = source.telemetry_snapshot()
        assert set(snap) == {"throughput", "samples", "tail_latency"}
        assert snap["samples"] == 1
