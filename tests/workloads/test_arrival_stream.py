"""Pre-generated arrival streams must be draw-identical to the
generator source.

``Driver.run_arrivals`` + :func:`poisson_arrival_stream` is the
fast-path way to offer an open-loop load; it may never change *what*
arrives relative to :class:`OpenLoopSource` at the same seed, only how
the arrivals are scheduled.
"""

import pytest

from repro.apps.base import Application, Operation
from repro.core import NullController
from repro.sim import Environment, MetricsCollector, Rng
from repro.workloads import Driver, MixEntry, OpenLoopSource, Workload
from repro.workloads.spec import poisson_arrival_stream


class TwoOpApp(Application):
    name = "twoop"

    def __init__(self, env, controller, rng):
        super().__init__(env, controller, rng)
        self.register_handler("fast", self._fast)
        self.register_handler("slow", self._slow)

    def _fast(self, task):
        yield self.env.timeout(0.001)

    def _slow(self, task):
        yield self.env.timeout(0.004)


MIX = lambda: [  # noqa: E731 - tiny fixture factory
    MixEntry(lambda: Operation("fast"), 0.8),
    MixEntry(lambda: Operation("slow"), 0.2),
]

RATE = 500.0
DURATION = 4.0


def run(use_stream: bool):
    env = Environment()
    controller = NullController(env)
    app = TwoOpApp(env, controller, Rng(7))
    collector = MetricsCollector()
    driver = Driver(env, app, controller, collector)
    if use_stream:
        stream = poisson_arrival_stream(
            app.rng.fork("arrivals:client"),
            rate=RATE,
            stop_time=DURATION,
            mix=MIX(),
        )
        assert driver.run_arrivals(stream) == len(stream)
    else:
        driver.run_workload(
            Workload(
                [OpenLoopSource(rate=RATE, mix=MIX(), stop_time=DURATION)]
            )
        )
    env.run(until=DURATION)
    return collector


def test_run_arrivals_matches_open_loop_source():
    a = run(use_stream=False)
    b = run(use_stream=True)
    assert len(a.records) == len(b.records) > 1000

    def key(record):
        return (
            record.request_id,
            record.op_name,
            record.client_id,
            record.arrival_time,
            record.finish_time,
            record.status,
            record.retries,
        )

    assert [key(r) for r in a.records] == [key(r) for r in b.records]


def test_stream_is_ascending_and_bounded():
    stream = poisson_arrival_stream(
        Rng(3), rate=100.0, stop_time=2.0, factory=lambda: Operation("fast")
    )
    times = [t for t, _ in stream]
    assert times == sorted(times)
    assert all(0.0 <= t < 2.0 for t in times)
    assert 100 < len(stream) < 300  # ~rate * stop_time


def test_stream_argument_validation():
    factory = lambda: Operation("fast")  # noqa: E731
    with pytest.raises(ValueError):
        poisson_arrival_stream(Rng(0), rate=0.0, stop_time=1.0, factory=factory)
    with pytest.raises(ValueError):
        poisson_arrival_stream(Rng(0), rate=1.0, stop_time=1.0)
    with pytest.raises(ValueError):
        poisson_arrival_stream(
            Rng(0), rate=1.0, stop_time=1.0, factory=factory, mix=MIX()
        )
