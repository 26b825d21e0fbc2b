"""Tests for the simulation environment and run loop."""

import pytest

from repro.sim import At, EmptySchedule, Environment


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_run_until_time_stops_clock_at_until():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_processes_events_at_boundary():
    env = Environment()
    fired = []
    ev = env.timeout(4.0)
    ev.callbacks.append(lambda e: fired.append(env.now))
    env.run(until=4.0)
    assert fired == [4.0]


def test_run_until_past_events_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 2.0


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    ev = env.timeout(1.0, value="v")
    env.run()
    assert env.run(until=ev) == "v"


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    ev = env.event()
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_handled_process_failure_does_not_propagate():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def watcher(env, proc):
        try:
            yield proc
        except ValueError:
            return "caught"

    proc = env.process(bad(env))
    watcher_proc = env.process(watcher(env, proc))
    assert env.run(until=watcher_proc) == "caught"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="not an Event"):
        env.run()


def _scheduled_counts(tracer=None):
    """``events_scheduled`` after each step of one small fixed schedule."""
    env = Environment(tracer=tracer)

    def proc(env):
        yield env.timeout(2.0)

    counts = [env.events_scheduled]
    env.timeout(1.0)
    counts.append(env.events_scheduled)
    env.process(proc(env))
    counts.append(env.events_scheduled)
    for at in (3.0, 4.0, 5.0):
        At(env, at)
    counts.append(env.events_scheduled)
    env.run()
    counts.append(env.events_scheduled)
    return counts


def test_events_scheduled_counts_every_scheduling_path():
    counts = _scheduled_counts()
    # One per timeout, one per process start, one per absolute-time
    # event; the run then adds the process's own timeout.  Nobody joined
    # the process, so its completion never reaches the heap and is not
    # counted.
    assert counts == [0, 1, 2, 5, 6]


def test_events_scheduled_unaffected_by_tracing():
    from repro.obs import Tracer

    assert _scheduled_counts(Tracer()) == _scheduled_counts()
