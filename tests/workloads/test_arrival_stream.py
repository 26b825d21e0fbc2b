"""The arrival pump: ``Driver.run_arrivals`` is the one way load enters
a run.

A materialized :func:`poisson_arrival_stream` and a live
:class:`OpenLoopSource` go through the same pump and must offer the same
requests at the same seed; the pump keeps one pending arrival per
stream, pulls the next one at the previous one's time (so a generator
follows a live rate), and refuses a stream that would rewind the clock.
"""

import pytest

from repro.apps.base import Application, Operation
from repro.core import NullController
from repro.sim import At, Environment, MetricsCollector, Rng
from repro.workloads import (
    Driver,
    MixEntry,
    OpenLoopSource,
    PeriodicOp,
    Workload,
)
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


def make_driver(seed=7):
    env = Environment()
    controller = NullController(env)
    app = TwoOpApp(env, controller, Rng(seed))
    return env, Driver(env, app, controller, MetricsCollector())


def fast():
    return Operation("fast")


def run(use_stream: bool):
    env, driver = make_driver()
    app, collector = driver.app, driver.collector
    if use_stream:
        stream = poisson_arrival_stream(
            app.rng.fork("arrivals:client"),
            rate=RATE,
            stop_time=DURATION,
            mix=MIX(),
        )
        driver.run_arrivals(stream)
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


def test_live_rate_is_read_at_the_previous_arrival():
    """Flip ``burst_factor`` mid-run: the delivered times equal a replay
    of the same forked rng with the factor read at each pull."""
    env, driver = make_driver()
    source = OpenLoopSource(rate=RATE, mix=MIX(), stop_time=3.0)
    driver.run_workload(Workload([source]))

    def set_factor(value):
        return lambda event: setattr(source, "burst_factor", value)

    At(env, 1.0).callbacks.append(set_factor(3.0))
    At(env, 2.0).callbacks.append(set_factor(1.0))
    env.run(until=3.5)

    rng = Rng(7).fork("arrivals:client")
    choose = rng.weighted_chooser(["fast", "slow"], [0.8, 0.2])
    expected = []
    t = 0.0
    while True:
        factor = 3.0 if 1.0 <= t < 2.0 else 1.0
        t += rng.exponential(1.0 / (RATE * factor))
        if t >= 3.0:
            break
        expected.append((t, choose()))
    records = sorted(driver.collector.records, key=lambda r: r.request_id)
    assert [(r.arrival_time, r.op_name) for r in records] == expected
    burst = sum(1 for t, _ in expected if 1.0 <= t < 2.0)
    assert burst > 2 * sum(1 for t, _ in expected if t < 1.0)


def test_one_pending_arrival_per_stream():
    """~10k arrivals over three streams: the heap holds the three next
    arrivals plus the in-flight requests' own events, never a future."""
    env, driver = make_driver()
    driver.run_workload(Workload([
        OpenLoopSource(rate=2000.0, mix=MIX(), stop_time=4.0),
        PeriodicOp(period=0.01, factory=fast, stop_time=4.0),
    ]))
    driver.run_arrivals(
        poisson_arrival_stream(
            Rng(1), rate=400.0, stop_time=4.0, factory=fast
        ),
        client_id="listed",
    )
    streams = 3
    peak = 0
    while env.peek() < 5.0:
        env.step()
        # Each live request owns one pending event, its service timeout
        # (a pumped request starts inline, with no start event); +1 for
        # a just-finished one's completion.
        assert env.queue_depth <= streams + env.alive_processes + 1
        peak = max(peak, env.queue_depth)
    assert len(driver.collector.records) > 9000
    assert peak < 60


def test_empty_and_exhausted_streams_schedule_nothing():
    env, driver = make_driver()
    driver.run_arrivals([])
    driver.run_arrivals(iter(()))
    assert (env.events_scheduled, env.queue_depth) == (0, 0)

    pulled_at = []

    def stream():
        for t in (0.5, 1.0):
            pulled_at.append(env.now)
            yield t, fast

    driver.run_arrivals(stream())
    assert env.queue_depth == 1  # the first arrival only
    env.run()
    assert pulled_at == [0.0, 0.5]  # each pulled as the previous fired
    assert env.queue_depth == 0
    assert [r.arrival_time for r in driver.collector.records] == [0.5, 1.0]


def test_out_of_order_stream_is_refused_by_name():
    env, driver = make_driver()
    driver.run_arrivals([(1.0, fast), (0.5, fast)], client_id="lb")
    with pytest.raises(ValueError, match=r"'lb': time 0\.5 is before now \(1\.0\)"):
        env.run()
    assert env.now == 1.0  # the clock was not rewound


def test_stream_starting_in_the_past_is_refused():
    env, driver = make_driver()
    env.run(until=2.0)
    with pytest.raises(ValueError, match=r"'late': time 1\.5 is before now \(2\.0\)"):
        driver.run_arrivals([(1.5, fast)], client_id="late")
    assert (env.now, env.queue_depth) == (2.0, 0)
