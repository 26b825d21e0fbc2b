"""Property tests for the kernel's (time, priority, sequence) ordering.

The packed heap key (``(priority << SEQ_BITS) | seq``) must order events
exactly like the documented contract: ascending time, then URGENT before
NORMAL, then FIFO scheduling order.  These tests drive randomized
same-time URGENT/NORMAL mixes through the real scheduler and compare the
processed order against a reference sort of the scheduling log.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import NORMAL, SEQ_BITS, URGENT, At, Event

#: A scheduled entry for the generators: (time-bucket, priority).  Few
#: distinct times so same-time collisions (the interesting regime) are
#: common.
entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([URGENT, NORMAL]),
    ),
    min_size=1,
    max_size=60,
)


def _processed_order(batch):
    """Schedule ``batch`` and return processed indices in kernel order."""
    env = Environment()
    order = []

    def observe(index):
        def callback(event):
            order.append(index)

        return callback

    for index, (bucket, priority) in enumerate(batch):
        event = Event(env)
        event._value = index  # pre-triggered, like a Timeout
        event.callbacks.append(observe(index))
        env.schedule(event, priority=priority, delay=bucket * 0.25)
    env.run()
    return order


@given(entries)
@settings(max_examples=200, deadline=None)
def test_order_is_time_priority_fifo(batch):
    reference = sorted(
        range(len(batch)),
        key=lambda i: (batch[i][0], batch[i][1], i),
    )
    assert _processed_order(batch) == reference


@given(entries)
@settings(max_examples=100, deadline=None)
def test_urgent_precedes_normal_within_a_time(batch):
    order = _processed_order(batch)
    for bucket in {b for b, _ in batch}:
        at_time = [i for i in order if batch[i][0] == bucket]
        # Within one timestamp: all URGENT events first, each class FIFO.
        urgent = [i for i in at_time if batch[i][1] == URGENT]
        normal = [i for i in at_time if batch[i][1] == NORMAL]
        assert at_time == urgent + normal
        assert urgent == sorted(urgent)
        assert normal == sorted(normal)


@given(st.integers(min_value=0, max_value=2**SEQ_BITS - 1))
@settings(max_examples=200, deadline=None)
def test_packed_key_matches_tuple_order(seq):
    # The packed key must compare exactly like the (priority, seq) tuple
    # for any sequence number the kernel can reach.
    urgent_key = (URGENT << SEQ_BITS) | seq
    normal_key = (NORMAL << SEQ_BITS) | seq
    assert urgent_key < normal_key
    assert (urgent_key < (URGENT << SEQ_BITS) | (seq + 1)) == (
        (URGENT, seq) < (URGENT, seq + 1)
    )


def test_at_events_match_loop_of_schedules():
    """Absolute-time ``At`` events are processed in the same order as an
    equivalent sequence of schedule() calls: ascending time, FIFO among
    ties, one sequence number each."""

    def build(use_at):
        env = Environment()
        order = []

        def observe(index):
            return lambda event: order.append((index, env.now))

        times = [0.0, 0.1, 0.1, 0.1, 0.4, 0.4, 1.0]
        for index, at in enumerate(times):
            if use_at:
                event = At(env, at, index)
            else:
                event = Event(env)
                event._value = index
                env.schedule(event, delay=at)
            event.callbacks.append(observe(index))
        assert env.events_scheduled == len(times)
        env.run()
        return order

    assert build(True) == build(False)
    assert [index for index, _ in build(True)] == list(range(7))


def test_at_fires_at_its_exact_time_and_never_in_the_past():
    env = Environment()
    env.run(until=0.3)
    at = 0.9
    assert 0.3 + (at - 0.3) != at  # why At takes a time, not a delay
    seen = []
    At(env, at).callbacks.append(lambda event: seen.append(env.now))
    env.run()
    assert seen == [at]
    with pytest.raises(ValueError, match="before now"):
        At(env, at - 0.5)
