"""Differential test: ``CPU`` against the generator-loop reference.

``reference_cpu.ReferenceCPU`` is the CPU as it was before its slice
loop was driven by callbacks and its core hand-off skipped grant events.
Both run the same random program, each in its own environment: tasks
that start at chosen instants and run one ``execute`` after another,
interrupts aimed at them, ``degrade`` / ``restore`` calls, and unrelated
events.  Times are dyadic (sums of halves), so slice ends tie exactly:
several calls started at one instant end their slices together, and an
unrelated event can be due at exactly a slice end.

After every distinct simulated time the two must agree on
``cpu_seconds`` (summed in the same charge order, so exactly equal),
``owners()``, ``run_queue_length``, ``busy_cores`` and the pool's busy
and wait totals; over the whole run, on the ordered ``(time, owner)``
slice starts and ``execute`` outcomes, each finished call with the
seconds it returned as charged.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.resources import CPU
from repro.sim.resources.cpu import _SliceLoop

from .reference_cpu import ReferenceCPU

TIMES = [k / 2 for k in range(17)]  # 0.0, 0.5, ..., 8.0
DEMANDS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0]


@contextlib.contextmanager
def recorded_starts(log):
    """Append ``(now, owner)`` to ``log`` at each slice start of ``CPU``."""
    start = _SliceLoop._start

    def recording(self, grant):
        if not grant.closed:
            log.append((self.cpu.env.now, self.owner))
        start(self, grant)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SliceLoop, "_start", recording)
        yield


def build(make_cpu, program):
    """One environment running ``program``; returns the pieces to drive."""
    env = Environment()
    cpu = make_cpu(env, "cpu", program["cores"], program["slice"])
    outcomes = []

    def task(owner, start, steps):
        yield env.timeout(start)
        for gap, demand in steps:
            try:
                if gap is not None:
                    yield env.timeout(gap)
                charged = yield from cpu.execute(owner, demand)
                outcomes.append((env.now, owner, "done", charged))
            except Interrupt:
                outcomes.append((env.now, owner, "interrupted"))

    def at(when, action):
        yield env.timeout(when)
        action()

    processes = [
        env.process(task(f"t{i}", start, steps))
        for i, (start, steps) in enumerate(program["tasks"])
    ]

    def interrupt(index):
        def fire():
            target = processes[index % len(processes)]
            if target.is_alive:
                target.interrupt("cancel")
        return fire

    for when, index in program["interrupts"]:
        env.process(at(when, interrupt(index)))
    for when, factor in program["faults"]:
        action = cpu.restore if factor is None else (
            lambda factor=factor: cpu.degrade(factor)
        )
        env.process(at(when, action))
    for when in program["noise"]:
        env.process(at(when, lambda: None))
    return env, cpu, outcomes


def run(make_cpu, program):
    """Every state after each distinct time, the outcomes, and the CPU."""
    env, cpu, outcomes = build(make_cpu, program)
    states = []
    while env.peek() != float("inf"):
        now = env.peek()
        while env.peek() == now:
            env.step()
        pool = cpu._pool
        states.append((
            now,
            cpu.cpu_seconds,
            cpu.owners(),
            cpu.run_queue_length,
            cpu.busy_cores,
            pool.total_busy_time,
            pool.total_wait_time,
        ))
    return states, outcomes, cpu


def assert_same_run(program):
    """Run ``program`` on both CPUs, compare them; returns the starts."""
    reference_states, reference_outcomes, reference = run(
        ReferenceCPU, program
    )
    starts = []
    with recorded_starts(starts):
        states, outcomes, _ = run(CPU, program)
    assert len(states) == len(reference_states)
    for got, want in zip(states, reference_states):
        assert got == want
    assert outcomes == reference_outcomes
    assert starts == reference.starts
    return starts


STEP = st.tuples(
    st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0])),
    st.sampled_from(DEMANDS),
)
PROGRAMS = st.fixed_dictionaries({
    "cores": st.integers(min_value=1, max_value=8),
    "slice": st.sampled_from([0.5, 1.0, 2.0, 0.3]),
    "tasks": st.lists(
        st.tuples(
            # Weighted towards t=0: many calls start at one instant.
            st.one_of(st.just(0.0), st.sampled_from(TIMES)),
            st.lists(STEP, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=10,
    ),
    "interrupts": st.lists(
        st.tuples(st.sampled_from(TIMES), st.integers(0, 9)), max_size=4
    ),
    "faults": st.lists(
        st.tuples(
            st.sampled_from(TIMES),
            st.one_of(st.none(), st.sampled_from([0.1, 0.5, 0.75])),
        ),
        max_size=3,
    ),
    "noise": st.lists(st.sampled_from(TIMES), max_size=4),
})


@given(program=PROGRAMS)
@settings(max_examples=200, deadline=None)
def test_random_programs_match_the_reference(program):
    assert_same_run(program)


def program(**overrides):
    base = {"cores": 2, "slice": 1.0, "tasks": [], "interrupts": [],
            "faults": [], "noise": []}
    base.update(overrides)
    return base


def test_a_grant_due_at_a_slice_end_keeps_its_place():
    """A core freed at t=1 must not be kept inline while another call's
    first grant is due at t=1: that grant was scheduled first, so its
    slice's timer must be too.  ``d`` wakes at t=1 ahead of ``a``'s slice
    end and takes the second core; ``e`` queues at t=1.5.  At t=2 the two
    slices tie, and ``d``'s, scheduled first, hands its core to ``e``."""
    case = program(tasks=[
        (1.0, [(None, 1.0)]),    # t0 = d
        (0.0, [(None, 2.0)]),    # t1 = a
        (1.5, [(None, 1.0)]),    # t2 = e
    ])
    assert assert_same_run(case) == [
        (0.0, "t1"), (1.0, "t0"), (1.0, "t1"), (2.0, "t2"),
    ]
    _, outcomes, _ = run(CPU, case)
    assert outcomes == [
        (2.0, "t0", "done", 1.0), (2.0, "t1", "done", 2.0),
        (3.0, "t2", "done", 1.0),
    ]


def test_interrupts_at_every_stage_of_a_slice():
    """One core, slices of 1, round robin.  The interrupts hit ``t3``
    while its grant is queued (0.5), ``t1`` mid-slice (1.5), ``t2`` at
    1.5 once ``t1``'s release granted it the core but before that grant
    event popped, and ``t2`` again at 3.5, the very end of its last
    slice (the interrupt was scheduled first, so the slice is not
    charged)."""
    case = program(
        cores=1,
        tasks=[
            (0.0, [(None, 3.0), (None, 1.0)]),
            (0.0, [(None, 1.0)]),
            (0.5, [(None, 1.0), (0.0, 1.0)]),
            (0.0, [(None, 1.0)]),
        ],
        interrupts=[(0.5, 3), (1.5, 1), (1.5, 2), (3.5, 2)],
    )
    assert assert_same_run(case) == [
        (0.0, "t0"), (1.0, "t1"), (1.5, "t0"), (2.5, "t2"), (3.5, "t0"),
        (4.5, "t0"),
    ]
    _, outcomes, cpu = run(CPU, case)
    assert outcomes == [
        (0.5, "t3", "interrupted"), (1.5, "t1", "interrupted"),
        (1.5, "t2", "interrupted"), (3.5, "t2", "interrupted"),
        (4.5, "t0", "done", 3.0), (5.5, "t0", "done", 1.0),
    ]
    # No interrupted call was charged: the total is t0's two calls.
    assert cpu.cpu_seconds == 4.0


def test_degrade_below_the_running_slices_then_restore():
    """Four slices run on four cores, two more queue, then three cores go
    offline at 0.75.  At t=1 the two slices started at 0 end with the
    pool still over-committed: the second of them sees nothing else due,
    yet must not hand its core to the queue's head."""
    case = program(
        cores=4,
        tasks=[(0.0, [(None, 3.0)])] * 2 + [(0.5, [(None, 3.0)])] * 4,
        faults=[(0.75, 0.25), (2.0, None)],
        noise=[1.5, 3.0],
    )
    assert_same_run(case)
