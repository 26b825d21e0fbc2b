"""Tests for workload sources (arrival processes)."""

import pytest

from repro.apps.base import Application, Operation
from repro.core import NullController
from repro.experiments import run_simulation
from repro.sim import Environment, Rng
from repro.workloads import (
    Driver,
    MixEntry,
    OpenLoopSource,
    PeriodicOp,
    ScheduledOp,
    Workload,
)


class EchoApp(Application):
    """Records every executed op name with its start time."""

    name = "echo"

    def __init__(self, env, controller, rng, service=0.001):
        super().__init__(env, controller, rng)
        self.calls = []
        self.service = service
        self.register_handler("a", self._handler("a"))
        self.register_handler("b", self._handler("b"))

    def _handler(self, name):
        def handle(task, **params):
            self.calls.append((name, self.env.now, params))
            yield self.env.timeout(self.service)

        return handle


def echo_factory(env, controller, rng):
    return EchoApp(env, controller, rng)


def run(workload_builder, duration=5.0, seed=0):
    return run_simulation(
        echo_factory, workload_builder, duration=duration, seed=seed
    )


def op_factory(name, **params):
    return lambda: Operation(name, dict(params))


class TestOpenLoopSource:
    def test_rate_approximates_arrivals(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=200.0,
                        mix=[MixEntry(factory=op_factory("a"), weight=1.0)],
                    )
                ]
            )

        result = run(build, duration=10.0)
        # Poisson(2000): within 4 sigma.
        assert 1800 < result.collector.offered < 2200

    def test_mix_weights_respected(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=300.0,
                        mix=[
                            MixEntry(factory=op_factory("a"), weight=0.9),
                            MixEntry(factory=op_factory("b"), weight=0.1),
                        ],
                    )
                ]
            )

        result = run(build, duration=10.0)
        names = [c[0] for c in result.app.calls]
        ratio = names.count("a") / len(names)
        assert 0.85 < ratio < 0.95

    def test_start_and_stop_times(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=200.0,
                        mix=[MixEntry(factory=op_factory("a"), weight=1.0)],
                        start_time=1.0,
                        stop_time=2.0,
                    )
                ]
            )

        result = run(build, duration=5.0)
        times = [t for _, t, _ in result.app.calls]
        assert min(times) >= 1.0
        assert max(times) <= 2.01

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopSource(rate=0.0, mix=[MixEntry(op_factory("a"), 1.0)])
        with pytest.raises(ValueError):
            OpenLoopSource(rate=1.0, mix=[])
        with pytest.raises(ValueError):
            MixEntry(op_factory("a"), weight=0.0)


class TestScheduledOp:
    def test_fires_once_at_time(self):
        def build(app, rng):
            return Workload(
                [ScheduledOp(at=2.5, factory=op_factory("b", tag=1))]
            )

        result = run(build, duration=5.0)
        assert len(result.app.calls) == 1
        name, t, params = result.app.calls[0]
        assert name == "b"
        assert t == pytest.approx(2.5)
        assert params == {"tag": 1}


class TestPeriodicOp:
    def test_fires_on_period(self):
        def build(app, rng):
            return Workload(
                [PeriodicOp(period=1.0, factory=op_factory("a"))]
            )

        result = run(build, duration=4.5)
        times = [t for _, t, _ in result.app.calls]
        assert times == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_stop_time(self):
        def build(app, rng):
            return Workload(
                [
                    PeriodicOp(
                        period=1.0, factory=op_factory("a"), stop_time=2.5
                    )
                ]
            )

        result = run(build, duration=6.0)
        assert len(result.app.calls) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicOp(period=0.0, factory=op_factory("a"))


class TestDeterminism:
    def test_same_seed_same_arrivals(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=100.0,
                        mix=[MixEntry(factory=op_factory("a"), weight=1.0)],
                    )
                ]
            )

        r1 = run(build, seed=42)
        r2 = run(build, seed=42)
        assert [t for _, t, _ in r1.app.calls] == [
            t for _, t, _ in r2.app.calls
        ]

    def test_different_clients_independent_streams(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=100.0,
                        mix=[MixEntry(factory=op_factory("a"), weight=1.0)],
                        client_id="x",
                    ),
                    OpenLoopSource(
                        rate=100.0,
                        mix=[MixEntry(factory=op_factory("b"), weight=1.0)],
                        client_id="y",
                    ),
                ]
            )

        result = run(build, duration=5.0)
        a_times = [t for n, t, _ in result.app.calls if n == "a"]
        b_times = [t for n, t, _ in result.app.calls if n == "b"]
        assert a_times != b_times
